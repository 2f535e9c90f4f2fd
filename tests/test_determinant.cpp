// Tests for the determinant engine: LU factorization/inverse/determinant,
// the ratio formula (paper Eq. 3), and Sherman-Morrison updates over long
// move sequences.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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
