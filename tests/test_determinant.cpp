// Tests for the determinant engine: LU factorization/inverse/determinant,
// the ratio formula (paper Eq. 3), Sherman-Morrison updates over long move
// sequences, and the delayed rank-k update path against both.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "determinant/delayed_update.h"
#include "determinant/det_update.h"
#include "determinant/dirac_determinant.h"
#include "determinant/lane_dot.h"
#include "determinant/lu.h"
#include "determinant/matrix.h"

using namespace mqc;

namespace {

Matrix<double> random_matrix(int n, std::uint64_t seed, double diag_boost = 1.0)
{
  Matrix<double> a(n);
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a(i, j) = rng.uniform(-1.0, 1.0) + (i == j ? diag_boost : 0.0);
  return a;
}

/// Sizes that exercise the lane kernel's remainders (8 lanes, 4 rows per
/// pass): below one lane block, one past it, odd and even remainders, and
/// the graphite walker's 128 orbitals with and without a remainder.
constexpr int kRemainderSizes[] = {1, 7, 9, 13, 16, 128, 130};

/// O(N^3) determinant by LU, fresh copy (oracle).
double det_of(const Matrix<double>& a)
{
  Matrix<double> lu = a;
  std::vector<int> piv;
  if (!lu_factor(lu, piv))
    return 0.0;
  double log_det, sign;
  lu_logdet(lu, piv, log_det, sign);
  return sign * std::exp(log_det);
}

} // namespace

TEST(LU, KnownDeterminant2x2)
{
  Matrix<double> a(2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 4;
  a(1, 1) = 2;
  EXPECT_NEAR(det_of(a), 2.0, 1e-12);
}

TEST(LU, KnownDeterminant3x3WithPivoting)
{
  // Zero on the leading diagonal forces a pivot.
  Matrix<double> a(3);
  const double vals[9] = {0, 2, 1, 1, 0, 3, 2, 1, 0};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      a(i, j) = vals[3 * i + j];
  // det = 0*(0*0-3*1) - 2*(1*0-3*2) + 1*(1*1-0*2) = 12 + 1 = 13.
  EXPECT_NEAR(det_of(a), 13.0, 1e-12);
}

TEST(LU, SingularMatrixDetected)
{
  Matrix<double> a(3);
  for (int j = 0; j < 3; ++j) {
    a(0, j) = j + 1.0;
    a(1, j) = 2.0 * (j + 1.0); // row 1 = 2 x row 0
    a(2, j) = j * j + 1.0;
  }
  std::vector<int> piv;
  Matrix<double> lu = a;
  EXPECT_FALSE(lu_factor(lu, piv));
}

TEST(LU, InverseTimesMatrixIsIdentity)
{
  for (int n : {1, 2, 5, 16, 48, 127, 128, 130}) {
    Matrix<double> a = random_matrix(n, 100 + static_cast<std::uint64_t>(n));
    Matrix<double> inv = a;
    double log_det, sign;
    ASSERT_TRUE(invert_matrix(inv, log_det, sign)) << n;
    const Matrix<double> prod = matmul(a, inv);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9) << n;
  }
}

TEST(LU, LogDetMatchesDirectDet)
{
  Matrix<double> a = random_matrix(6, 7);
  Matrix<double> inv = a;
  double log_det, sign;
  ASSERT_TRUE(invert_matrix(inv, log_det, sign));
  EXPECT_NEAR(sign * std::exp(log_det), det_of(a), 1e-9);
}

TEST(Dirac, RatioMatchesDeterminantQuotient)
{
  const int n = 12;
  Matrix<double> a = random_matrix(n, 3);
  DiracDeterminant det;
  ASSERT_TRUE(det.build(a));

  Xoshiro256 rng(9);
  for (int e = 0; e < n; e += 3) {
    std::vector<double> u(static_cast<std::size_t>(n));
    for (auto& v : u)
      v = rng.uniform(-1.0, 1.0);
    // Oracle: replace column e and recompute.
    Matrix<double> ap = a;
    for (int i = 0; i < n; ++i)
      ap(i, e) = u[static_cast<std::size_t>(i)];
    EXPECT_NEAR(det.ratio(u.data(), e), det_of(ap) / det_of(a), 1e-8) << e;
  }
}

TEST(Dirac, ShermanMorrisonTracksFullInverse)
{
  for (int n : kRemainderSizes) {
    Matrix<double> a = random_matrix(n, 4, 2.0);
    DiracDeterminant det;
    ASSERT_TRUE(det.build(a)) << n;

    Xoshiro256 rng(11);
    for (int move = 0; move < 40; ++move) {
      const int e = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
      std::vector<double> u(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        u[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0) + (i == e ? 2.0 : 0.0);
      const double r = det.ratio(u.data(), e);
      if (std::abs(r) < 0.05)
        continue; // mimic rejection of near-singular proposals
      det.accept_move(u.data(), e);
      for (int i = 0; i < n; ++i)
        a(i, e) = u[static_cast<std::size_t>(i)];
    }
    // Compare against a fresh inversion.
    DiracDeterminant fresh;
    ASSERT_TRUE(fresh.build(a)) << n;
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_NEAR(det.inverse()(i, j), fresh.inverse()(i, j), 1e-7)
            << "n=" << n << " at " << i << ',' << j;
    EXPECT_NEAR(det.log_det(), fresh.log_det(), 1e-8) << n;
    EXPECT_EQ(det.sign(), fresh.sign()) << n;
  }
}

TEST(Dirac, RatioFollowsTheFixedLaneOrder)
{
  // The documented order, written as plain scalar code: partial sum k takes
  // the products at i = k (mod 8) in increasing i, then the pairs combine.
  // EXPECT_EQ, not NEAR: a width-dependent reduction (say `simd reduction`)
  // changes bits between the portable, MQC_NO_VECTOR and native builds.
  auto reference = [](const double* a, const double* b, int n) {
    double s[8] = {};
    for (int i = 0; i < n; ++i)
      s[i % 8] += a[i] * b[i];
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
  };
  for (int n : {5, 8, 13, 128}) {
    const Matrix<double> a = random_matrix(n, 90 + static_cast<std::uint64_t>(n), 2.0);
    DiracDeterminant det;
    ASSERT_TRUE(det.build(a)) << n;
    const Matrix<double>& inv = det.inverse();
    Xoshiro256 rng(91);
    std::vector<double> u(static_cast<std::size_t>(n));
    for (auto& v : u)
      v = rng.uniform(-1.0, 1.0);
    // Several rows per pass give each row the kernel's bits.
    std::vector<double> t(static_cast<std::size_t>(n));
    lane_matvec(inv, u.data(), t.data());
    for (int e = 0; e < n; ++e) {
      const double kernel = lane_dot(inv.row(e), u.data(), n);
      EXPECT_EQ(kernel, reference(inv.row(e), u.data(), n)) << "n=" << n << " row " << e;
      EXPECT_EQ(det.ratio(u.data(), e), kernel) << "n=" << n << " row " << e;
      EXPECT_EQ(t[static_cast<std::size_t>(e)], kernel) << "n=" << n << " row " << e;
    }
  }
}

TEST(Dirac, LogDetAccumulatesRatios)
{
  const int n = 8;
  Matrix<double> a = random_matrix(n, 5, 2.0);
  DiracDeterminant det;
  ASSERT_TRUE(det.build(a));
  const double log0 = det.log_det();

  std::vector<double> u(static_cast<std::size_t>(n));
  Xoshiro256 rng(6);
  for (int i = 0; i < n; ++i)
    u[static_cast<std::size_t>(i)] = rng.uniform(0.5, 1.5) + (i == 2 ? 1.0 : 0.0);
  const double r = det.ratio(u.data(), 2);
  det.accept_move(u.data(), 2);
  EXPECT_NEAR(det.log_det(), log0 + std::log(std::abs(r)), 1e-12);
}

TEST(Delayed, MatchesShermanMorrisonSequence)
{
  for (int n : kRemainderSizes) {
    Matrix<double> a = random_matrix(n, 21, 2.0);
    DiracDeterminant sm;
    DelayedDeterminant delayed(4);
    ASSERT_TRUE(sm.build(a)) << n;
    ASSERT_TRUE(delayed.build(a)) << n;

    Xoshiro256 rng(22);
    for (int move = 0; move < 25; ++move) {
      const int e = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
      std::vector<double> u(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        u[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0) + (i == e ? 2.0 : 0.0);
      const double r_sm = sm.ratio(u.data(), e);
      const double r_delayed = delayed.ratio(u.data(), e);
      ASSERT_NEAR(r_delayed, r_sm, 1e-7 * std::max(1.0, std::abs(r_sm)))
          << "n=" << n << " move " << move;
      if (std::abs(r_sm) < 0.05)
        continue;
      sm.accept_move(u.data(), e);
      delayed.accept_move(u.data(), e);
      ASSERT_NEAR(delayed.log_det(), sm.log_det(), 1e-7) << "n=" << n << " move " << move;
    }
    delayed.flush();
    const auto& bi = delayed.inverse();
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        ASSERT_NEAR(bi(i, j), sm.inverse()(i, j), 1e-6) << "n=" << n << " at " << i << ',' << j;
  }
}

TEST(Delayed, AutoFlushAtWindowAndRepeatedElectron)
{
  const int n = 10;
  Matrix<double> a = random_matrix(n, 31, 2.0);
  DelayedDeterminant delayed(3);
  ASSERT_TRUE(delayed.build(a));
  Xoshiro256 rng(33);
  std::vector<double> u(static_cast<std::size_t>(n));

  auto make_u = [&](int e) {
    for (int i = 0; i < n; ++i)
      u[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0) + (i == e ? 2.0 : 0.0);
  };

  make_u(0);
  delayed.accept_move(u.data(), 0);
  EXPECT_EQ(delayed.pending(), 1);
  make_u(1);
  delayed.accept_move(u.data(), 1);
  EXPECT_EQ(delayed.pending(), 2);
  // Touching electron 0 again must flush the window first.
  make_u(0);
  delayed.accept_move(u.data(), 0);
  EXPECT_EQ(delayed.pending(), 1);
  make_u(5);
  delayed.accept_move(u.data(), 5);
  make_u(6);
  delayed.accept_move(u.data(), 6); // hits delay=3 -> auto flush
  EXPECT_EQ(delayed.pending(), 0);
}

TEST(Delayed, DelayOneEqualsImmediateUpdates)
{
  const int n = 9;
  Matrix<double> a = random_matrix(n, 41, 2.0);
  DiracDeterminant sm;
  DelayedDeterminant d1(1);
  ASSERT_TRUE(sm.build(a));
  ASSERT_TRUE(d1.build(a));
  Xoshiro256 rng(44);
  for (int move = 0; move < 10; ++move) {
    const int e = static_cast<int>(rng() % n);
    std::vector<double> u(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      u[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0) + (i == e ? 2.0 : 0.0);
    if (std::abs(sm.ratio(u.data(), e)) < 0.05)
      continue;
    sm.accept_move(u.data(), e);
    d1.accept_move(u.data(), e);
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      ASSERT_NEAR(d1.inverse()(i, j), sm.inverse()(i, j), 1e-8);
}

TEST(Delayed, ThreadedFlushIsBitIdenticalToSerial)
{
  // The flush's column blocks (256 columns each) are disjoint and within a
  // block the per-element (i, m, j) order is untouched, so distributing
  // blocks over an inner team must reproduce the serial flush BIT for bit —
  // not merely to tolerance.  N = 520 spans 3 blocks (256 + 256 + 8,
  // including a partial one); team 3 does not divide anything evenly.
  const int n = 520;
  const int k = 6;
  const Matrix<double> a = random_matrix(n, 2026, 8.0);
  DelayedDeterminant serial(k), teamed(k);
  ASSERT_TRUE(serial.build(a));
  ASSERT_TRUE(teamed.build(a));
  teamed.set_team(TeamHandle::of(3));

  Xoshiro256 rng(77);
  std::vector<double> u(static_cast<std::size_t>(n));
  for (int m = 0; m < k; ++m) { // fill exactly one window, flush on accept k
    const int col = (m * 97) % n;
    for (int i = 0; i < n; ++i)
      u[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0) + (i == col ? 8.0 : 0.0);
    ASSERT_EQ(serial.ratio(u.data(), col), teamed.ratio(u.data(), col)) << "m=" << m;
    serial.accept_move(u.data(), col);
    teamed.accept_move(u.data(), col);
  }
  ASSERT_EQ(serial.pending(), 0); // the window flushed
  ASSERT_EQ(teamed.pending(), 0);
  EXPECT_EQ(serial.log_det(), teamed.log_det());
  const Matrix<double>& si = serial.inverse();
  const Matrix<double>& ti = teamed.inverse();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      ASSERT_EQ(si(i, j), ti(i, j)) << "inverse differs at (" << i << ", " << j << ")";
}

TEST(DetUpdater, SetTeamRoutesToTheDelayedEngine)
{
  // The wrapper forwards the caller's inner team to the delayed engine and
  // drops it for Sherman-Morrison; both stay correct afterwards.
  const int n = 40;
  const Matrix<double> a = random_matrix(n, 5, 6.0);
  DetUpdater sm(0), delayed(4);
  ASSERT_TRUE(sm.build(a));
  ASSERT_TRUE(delayed.build(a));
  sm.set_team(TeamHandle::of(4)); // no-op, must not crash or change results
  delayed.set_team(TeamHandle::of(4));

  Xoshiro256 rng(9);
  std::vector<double> u(static_cast<std::size_t>(n));
  for (int m = 0; m < 8; ++m) {
    const int col = m % n;
    for (int i = 0; i < n; ++i)
      u[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0) + (i == col ? 6.0 : 0.0);
    const double rs = sm.ratio(u.data(), col);
    const double rd = delayed.ratio(u.data(), col);
    EXPECT_NEAR(rs, rd, 1e-9 * std::max(1.0, std::abs(rs)));
    sm.accept_move(u.data(), col);
    delayed.accept_move(u.data(), col);
  }
  delayed.flush();
  EXPECT_NEAR(sm.log_det(), delayed.log_det(), 1e-8 * std::max(1.0, std::abs(sm.log_det())));
}

TEST(DetUpdater, DelayRankKnobSelectsTheAlgorithm)
{
  EXPECT_EQ(DetUpdater(0).kind(), DetUpdateKind::ShermanMorrison);
  EXPECT_EQ(DetUpdater(1).kind(), DetUpdateKind::ShermanMorrison);
  EXPECT_EQ(DetUpdater(2).kind(), DetUpdateKind::Delayed);
  EXPECT_EQ(DetUpdater(8).kind(), DetUpdateKind::Delayed);
  EXPECT_EQ(DetUpdater(0).delay(), 1);
  EXPECT_EQ(DetUpdater(8).delay(), 8);
}

TEST(DetUpdater, DispatchMatchesUnderlyingEngines)
{
  // The wrapper must be a pure dispatcher: bit-identical to DiracDeterminant
  // for delay_rank <= 1 and to DelayedDeterminant for delay_rank >= 2, over
  // a mixed accept/reject sequence.
  const int n = 12;
  Matrix<double> a = random_matrix(n, 61, 2.0);
  DiracDeterminant sm;
  DelayedDeterminant delayed(3);
  DetUpdater u_sm(0), u_delayed(3);
  ASSERT_TRUE(sm.build(a));
  ASSERT_TRUE(delayed.build(a));
  ASSERT_TRUE(u_sm.build(a));
  ASSERT_TRUE(u_delayed.build(a));

  Xoshiro256 rng(62);
  for (int move = 0; move < 20; ++move) {
    const int e = static_cast<int>(rng() % n);
    std::vector<double> u(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      u[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0) + (i == e ? 2.0 : 0.0);
    EXPECT_EQ(u_sm.ratio(u.data(), e), sm.ratio(u.data(), e));
    EXPECT_EQ(u_delayed.ratio(u.data(), e), delayed.ratio(u.data(), e));
    EXPECT_EQ(u_delayed.pending(), delayed.pending());
    if (std::abs(sm.ratio(u.data(), e)) < 0.05)
      continue;
    sm.accept_move(u.data(), e);
    delayed.accept_move(u.data(), e);
    u_sm.accept_move(u.data(), e);
    u_delayed.accept_move(u.data(), e);
    EXPECT_EQ(u_sm.log_det(), sm.log_det());
    EXPECT_EQ(u_delayed.log_det(), delayed.log_det());
  }
  // inverse() flushes the delayed window before exposing the matrix.
  EXPECT_EQ(u_sm.pending(), 0);
  const auto& inv = u_delayed.inverse();
  EXPECT_EQ(u_delayed.pending(), 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(inv(i, j), delayed.inverse()(i, j));
}

TEST(Matrix, BasicsAndMatmul)
{
  Matrix<double> a(2, 3), b(3, 2);
  int v = 1;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j)
      a(i, j) = v++;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j)
      b(i, j) = v++;
  const auto c = matmul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_DOUBLE_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
  a.fill(0.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 0.0);
}
