// Tests for the Jastrow factors: functor accuracy (cusp, cutoff, smooth
// truncation), gradient/Laplacian against finite differences of the log, and
// AoS == SoA cross-layout equivalence including move ratios.
#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "jastrow/bspline_functor.h"
#include "jastrow/one_body.h"
#include "jastrow/two_body.h"
#include "particles/particle_set.h"

using namespace mqc;

namespace {

struct JFixture
{
  Lattice lattice = Lattice::orthorhombic(6.0, 6.0, 6.0);
  ParticleSetSoA<double> elec_soa;
  ParticleSetAoS<double> elec_aos;
  ParticleSetSoA<double> ions_soa;
  ParticleSetAoS<double> ions_aos;
  BsplineJastrowFunctor<double> fj2 =
      BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, 2.5);
  BsplineJastrowFunctor<double> fj1 =
      BsplineJastrowFunctor<double>::make_exponential(-1.0, 0.75, 2.5);

  explicit JFixture(int nel = 16, int nion = 6, std::uint64_t seed = 5)
  {
    elec_soa = random_particles<double>(nel, lattice, seed);
    elec_aos = to_aos(elec_soa);
    ions_soa = random_particles<double>(nion, lattice, seed + 10);
    ions_aos = to_aos(ions_soa);
  }
};

/// Brute-force log J2 straight from positions.
double brute_log_j2(const JFixture& f)
{
  double u = 0.0;
  const int n = f.elec_soa.size();
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      const auto d = f.lattice.min_image(
          Vec3<double>{f.elec_soa[i].x - f.elec_soa[j].x, f.elec_soa[i].y - f.elec_soa[j].y,
                       f.elec_soa[i].z - f.elec_soa[j].z});
      u += f.fj2.evaluate(norm(d));
    }
  return -u;
}

double brute_log_j1(const JFixture& f)
{
  double u = 0.0;
  for (int i = 0; i < f.elec_soa.size(); ++i)
    for (int j = 0; j < f.ions_soa.size(); ++j) {
      const auto d = f.lattice.min_image(
          Vec3<double>{f.elec_soa[i].x - f.ions_soa[j].x, f.elec_soa[i].y - f.ions_soa[j].y,
                       f.elec_soa[i].z - f.ions_soa[j].z});
      u += f.fj1.evaluate(norm(d));
    }
  return -u;
}

} // namespace

TEST(Functor, CuspConditionAtOrigin)
{
  const auto f = BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, 3.0);
  double du, d2u;
  f.evaluate(0.0, du, d2u);
  EXPECT_NEAR(du, -0.5, 1e-9);
}

TEST(Functor, VanishesSmoothlyAtCutoff)
{
  const auto f = BsplineJastrowFunctor<double>::make_exponential(-1.0, 0.8, 2.0);
  double du, d2u;
  const double v = f.evaluate(2.0 - 1e-9, du, d2u);
  EXPECT_NEAR(v, 0.0, 1e-6);
  EXPECT_NEAR(du, 0.0, 1e-5);
  EXPECT_DOUBLE_EQ(f.evaluate(2.0), 0.0);
  EXPECT_DOUBLE_EQ(f.evaluate(5.0), 0.0);
  double du2, d2u2;
  EXPECT_DOUBLE_EQ(f.evaluate(2.5, du2, d2u2), 0.0);
  EXPECT_DOUBLE_EQ(du2, 0.0);
}

TEST(Functor, MatchesTargetProfile)
{
  const double cusp = -0.5, b = 1.0, rc = 3.0;
  const auto f = BsplineJastrowFunctor<double>::make_exponential(cusp, b, rc, 64);
  const double A = cusp / (-1.0 / b - 2.0 / rc);
  for (double r : {0.1, 0.5, 1.0, 1.7, 2.4}) {
    const double damp = 1.0 - r / rc;
    EXPECT_NEAR(f.evaluate(r), A * std::exp(-r / b) * damp * damp, 2e-4) << r;
  }
}

TEST(Functor, DerivativesMatchFiniteDifferences)
{
  const auto f = BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, 3.0, 64);
  const double h = 1e-6;
  for (double r : {0.2, 0.8, 1.5, 2.2}) {
    double du, d2u;
    f.evaluate(r, du, d2u);
    EXPECT_NEAR(du, (f.evaluate(r + h) - f.evaluate(r - h)) / (2 * h), 1e-6) << r;
    EXPECT_NEAR(d2u, (f.evaluate(r + h) - 2 * f.evaluate(r) + f.evaluate(r - h)) / (h * h), 1e-3)
        << r;
  }
}

TEST(Functor, SumRowHandlesSentinels)
{
  const auto f = BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, 2.0);
  const double row[4] = {0.5, kSelfDistance<double>, 1.0, 3.5};
  EXPECT_NEAR(f.sum_row(row, 4), f.evaluate(0.5) + f.evaluate(1.0), 1e-12);
}

namespace {

/// The row kernels mask instead of branching; at the cutoff boundary and at
/// the self-distance sentinel that mask must reproduce the scalar early-out
/// path bit-for-bit (exact zeros, not merely small values).
template <typename T>
void check_row_kernels_at_cutoff()
{
  const T rc = T(2);
  const auto f = BsplineJastrowFunctor<T>::make_exponential(T(-0.5), T(1), rc);
  alignas(kAlignment) const T row[8] = {T(0.25),          rc,     T(1.3), kSelfDistance<T>,
                                        std::nextafter(rc, T(3)), T(0.8), T(3.7), T(1.9)};
  alignas(kAlignment) T u[8], du[8], d2u[8];
  f.evaluate_row(row, 8, u, du, d2u);
  T scalar_sum = T(0);
  for (int j = 0; j < 8; ++j) {
    T sdu, sd2u;
    const T su = f.evaluate(row[j], sdu, sd2u);
    scalar_sum += su;
    if (row[j] >= rc) {
      // Exact zero contribution, matching the scalar r >= rcut early-out.
      EXPECT_EQ(u[j], T(0)) << row[j];
      EXPECT_EQ(du[j], T(0)) << row[j];
      EXPECT_EQ(d2u[j], T(0)) << row[j];
    } else {
      const T tol = std::is_same_v<T, double> ? T(1e-12) : T(1e-6);
      EXPECT_NEAR(u[j], su, tol) << row[j];
      EXPECT_NEAR(du[j], sdu, tol * 10) << row[j];
      EXPECT_NEAR(d2u[j], sd2u, tol * 100) << row[j];
    }
  }
  const T tol = std::is_same_v<T, double> ? T(1e-12) : T(1e-5);
  EXPECT_NEAR(f.sum_row(row, 8), scalar_sum, tol);

  // A row made entirely of at/beyond-cutoff entries sums to exactly zero.
  alignas(kAlignment) const T dead_row[4] = {rc, kSelfDistance<T>, T(100), rc + T(1)};
  EXPECT_EQ(f.sum_row(dead_row, 4), T(0));
  f.evaluate_row(dead_row, 4, u, du, d2u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(u[j], T(0)) << j;
    EXPECT_EQ(du[j], T(0)) << j;
    EXPECT_EQ(d2u[j], T(0)) << j;
  }
}

} // namespace

TEST(Functor, RowKernelsMaskCutoffBoundaryExactlyDouble)
{
  check_row_kernels_at_cutoff<double>();
}

TEST(Functor, RowKernelsMaskCutoffBoundaryExactlyFloat)
{
  check_row_kernels_at_cutoff<float>();
}

TEST(J2, ValueMatchesBruteForce)
{
  JFixture f;
  DistanceTableAA_SoA<double> soa(f.lattice, f.elec_soa.size());
  soa.evaluate(f.elec_soa);
  const TwoBodyJastrowSoA<double> j2(f.fj2);
  std::vector<Vec3<double>> g(static_cast<std::size_t>(f.elec_soa.size()));
  std::vector<double> l(static_cast<std::size_t>(f.elec_soa.size()));
  EXPECT_NEAR(j2.evaluate_log(soa, g.data(), l.data()), brute_log_j2(f), 1e-9);
}

TEST(J2, AoSAndSoAAgree)
{
  JFixture f;
  DistanceTableAA_AoS<double> ta(f.lattice, f.elec_aos.size());
  DistanceTableAA_SoA<double> ts(f.lattice, f.elec_soa.size());
  ta.evaluate(f.elec_aos);
  ts.evaluate(f.elec_soa);
  const TwoBodyJastrowAoS<double> ja(f.fj2);
  const TwoBodyJastrowSoA<double> js(f.fj2);
  const int n = f.elec_soa.size();
  std::vector<Vec3<double>> ga(static_cast<std::size_t>(n)), gs(static_cast<std::size_t>(n));
  std::vector<double> la(static_cast<std::size_t>(n)), ls(static_cast<std::size_t>(n));
  const double va = ja.evaluate_log(ta, ga.data(), la.data());
  const double vs = js.evaluate_log(ts, gs.data(), ls.data());
  EXPECT_NEAR(va, vs, 1e-9);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ga[static_cast<std::size_t>(i)].x, gs[static_cast<std::size_t>(i)].x, 1e-9);
    EXPECT_NEAR(ga[static_cast<std::size_t>(i)].y, gs[static_cast<std::size_t>(i)].y, 1e-9);
    EXPECT_NEAR(la[static_cast<std::size_t>(i)], ls[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(J2, GradientMatchesFiniteDifferenceOfLog)
{
  JFixture f(10);
  const TwoBodyJastrowSoA<double> j2(f.fj2);
  const int n = f.elec_soa.size();
  std::vector<Vec3<double>> g(static_cast<std::size_t>(n));
  std::vector<double> l(static_cast<std::size_t>(n));

  auto log_j2_at = [&](int iel, Vec3<double> r) {
    auto elec = f.elec_soa;
    elec.set(iel, r);
    DistanceTableAA_SoA<double> t(f.lattice, n);
    t.evaluate(elec);
    std::vector<Vec3<double>> gg(static_cast<std::size_t>(n));
    std::vector<double> ll(static_cast<std::size_t>(n));
    return j2.evaluate_log(t, gg.data(), ll.data());
  };

  DistanceTableAA_SoA<double> t(f.lattice, n);
  t.evaluate(f.elec_soa);
  j2.evaluate_log(t, g.data(), l.data());

  const double h = 1e-6;
  for (int iel : {0, 4, 9}) {
    const Vec3<double> r = f.elec_soa[iel];
    const double fdx = (log_j2_at(iel, Vec3<double>{r.x + h, r.y, r.z}) -
                        log_j2_at(iel, Vec3<double>{r.x - h, r.y, r.z})) /
                       (2 * h);
    const double fdy = (log_j2_at(iel, Vec3<double>{r.x, r.y + h, r.z}) -
                        log_j2_at(iel, Vec3<double>{r.x, r.y - h, r.z})) /
                       (2 * h);
    EXPECT_NEAR(g[static_cast<std::size_t>(iel)].x, fdx, 1e-5) << iel;
    EXPECT_NEAR(g[static_cast<std::size_t>(iel)].y, fdy, 1e-5) << iel;
  }
}

TEST(J2, LaplacianMatchesFiniteDifferenceOfLog)
{
  JFixture f(8);
  const TwoBodyJastrowSoA<double> j2(f.fj2);
  const int n = f.elec_soa.size();

  auto log_j2_at = [&](int iel, Vec3<double> r) {
    auto elec = f.elec_soa;
    elec.set(iel, r);
    DistanceTableAA_SoA<double> t(f.lattice, n);
    t.evaluate(elec);
    std::vector<Vec3<double>> gg(static_cast<std::size_t>(n));
    std::vector<double> ll(static_cast<std::size_t>(n));
    return j2.evaluate_log(t, gg.data(), ll.data());
  };

  DistanceTableAA_SoA<double> t(f.lattice, n);
  t.evaluate(f.elec_soa);
  std::vector<Vec3<double>> g(static_cast<std::size_t>(n));
  std::vector<double> l(static_cast<std::size_t>(n));
  j2.evaluate_log(t, g.data(), l.data());

  const double h = 1e-4;
  const int iel = 3;
  const Vec3<double> r = f.elec_soa[iel];
  const double f0 = log_j2_at(iel, r);
  double lap_fd = 0.0;
  lap_fd += (log_j2_at(iel, Vec3<double>{r.x + h, r.y, r.z}) -
             2 * f0 + log_j2_at(iel, Vec3<double>{r.x - h, r.y, r.z})) /
            (h * h);
  lap_fd += (log_j2_at(iel, Vec3<double>{r.x, r.y + h, r.z}) -
             2 * f0 + log_j2_at(iel, Vec3<double>{r.x, r.y - h, r.z})) /
            (h * h);
  lap_fd += (log_j2_at(iel, Vec3<double>{r.x, r.y, r.z + h}) -
             2 * f0 + log_j2_at(iel, Vec3<double>{r.x, r.y, r.z - h})) /
            (h * h);
  EXPECT_NEAR(l[static_cast<std::size_t>(iel)], lap_fd, 1e-3);
}

TEST(J2, RatioMatchesRecompute)
{
  JFixture f;
  const int n = f.elec_soa.size();
  const TwoBodyJastrowSoA<double> j2(f.fj2);
  DistanceTableAA_SoA<double> t(f.lattice, n);
  t.evaluate(f.elec_soa);

  std::vector<Vec3<double>> g(static_cast<std::size_t>(n));
  std::vector<double> l(static_cast<std::size_t>(n));
  const double log_before = j2.evaluate_log(t, g.data(), l.data());

  const int iel = 7;
  const Vec3<double> rnew{2.1, 0.4, 5.0};
  t.compute_temp(f.elec_soa, rnew, iel);
  const double ratio = j2.ratio_log(t, iel);

  auto elec = f.elec_soa;
  elec.set(iel, rnew);
  DistanceTableAA_SoA<double> t2(f.lattice, n);
  t2.evaluate(elec);
  const double log_after = j2.evaluate_log(t2, g.data(), l.data());
  EXPECT_NEAR(ratio, log_after - log_before, 1e-9);
}

// ---------------------------------------------------------------------------
// Known-answer oracle: J2 straight from its definition
// ---------------------------------------------------------------------------

namespace {

/// log J2, its per-electron gradients and Laplacians, and move ratios from
/// the definition, in double precision: pair sums of u(r_ij) with the
/// orthorhombic minimum image taken per component (d - L round(d / L)), so
/// neither the lattice code nor a distance table is involved.
struct J2Oracle
{
  Vec3<double> box;
  const BsplineJastrowFunctor<double>& f;
  std::vector<Vec3<double>> pos;

  [[nodiscard]] Vec3<double> displ(const Vec3<double>& a, const Vec3<double>& b) const
  {
    Vec3<double> d = a - b;
    d.x -= box.x * std::round(d.x / box.x);
    d.y -= box.y * std::round(d.y / box.y);
    d.z -= box.z * std::round(d.z / box.z);
    return d;
  }

  /// sum over j != skip of u(|r - r_j|).
  [[nodiscard]] double u_sum(const Vec3<double>& r, int skip) const
  {
    double u = 0.0;
    for (std::size_t j = 0; j < pos.size(); ++j)
      if (static_cast<int>(j) != skip)
        u += f.evaluate(norm(displ(r, pos[j])));
    return u;
  }

  /// The pair sums and, for each, the sum of its terms' magnitudes (the
  /// scale its rounding error grows with).
  struct Full
  {
    double log_j2 = 0.0, u_scale = 0.0;
    std::vector<Vec3<double>> grad;
    std::vector<double> lap, grad_scale, lap_scale;
  };

  [[nodiscard]] Full evaluate() const
  {
    const std::size_t n = pos.size();
    Full out;
    out.grad.assign(n, Vec3<double>{});
    out.lap.assign(n, 0.0);
    out.grad_scale.assign(n, 0.0);
    out.lap_scale.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j)
          continue;
        const Vec3<double> d = displ(pos[i], pos[j]);
        const double r = norm(d);
        double du = 0.0, d2u = 0.0;
        const double u = f.evaluate(r, du, d2u);
        if (j > i) {
          out.log_j2 -= u;
          out.u_scale += std::abs(u);
        }
        out.grad[i] -= (du / r) * d;
        out.lap[i] -= d2u + 2.0 * du / r;
        out.grad_scale[i] += std::abs(du);
        out.lap_scale[i] += std::abs(d2u) + 2.0 * std::abs(du) / r;
      }
    return out;
  }

  [[nodiscard]] double ratio_log(int iel, const Vec3<double>& rnew) const
  {
    return u_sum(pos[static_cast<std::size_t>(iel)], iel) - u_sum(rnew, iel);
  }
};

/// J2 evaluate_log and ratio_log of one layout in precision T (Exact mode,
/// orthorhombic cell) against the oracle, before and after a run of
/// accepted moves.  Each quantity must agree within @p tol times the sum of
/// its terms' magnitudes (at least 1): sum |u| for the value and the
/// ratios, sum |u'| for an electron's gradient, sum |u''| + 2|u'|/r for its
/// Laplacian.
template <typename T, bool kSoA>
void check_j2_against_oracle(double tol)
{
  using Set = std::conditional_t<kSoA, ParticleSetSoA<T>, ParticleSetAoS<T>>;
  using Table = std::conditional_t<kSoA, DistanceTableAA_SoA<T>, DistanceTableAA_AoS<T>>;
  using J2 = std::conditional_t<kSoA, TwoBodyJastrowSoA<T>, TwoBodyJastrowAoS<T>>;
  const Vec3<double> box{6.0, 6.5, 7.0};
  const Lattice lattice = Lattice::orthorhombic(box.x, box.y, box.z);
  const int n = 48;
  const ParticleSetSoA<T> start = random_particles<T>(n, lattice, 31);
  Set elec;
  if constexpr (kSoA)
    elec = start;
  else
    elec = to_aos(start);
  const auto f = BsplineJastrowFunctor<T>::make_exponential(T(-0.5), T(1), T(2.5));
  const auto fd = BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, 2.5);
  J2Oracle oracle{box, fd, {}};
  auto widen = [](const Vec3<T>& r) {
    return Vec3<double>{static_cast<double>(r.x), static_cast<double>(r.y),
                        static_cast<double>(r.z)};
  };
  for (int i = 0; i < n; ++i)
    oracle.pos.push_back(widen(start[i]));

  Table table(lattice, n, MinImageMode::Exact);
  table.evaluate(elec);
  const J2 j2(f);
  std::vector<Vec3<T>> g(static_cast<std::size_t>(n));
  std::vector<T> l(static_cast<std::size_t>(n));
  auto within = [tol](double scale) { return tol * std::max(1.0, scale); };
  auto check_full = [&](const char* when) {
    const J2Oracle::Full want = oracle.evaluate();
    EXPECT_NEAR(static_cast<double>(j2.evaluate_log(table, g.data(), l.data())), want.log_j2,
                within(want.u_scale))
        << when;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      const double gb = within(want.grad_scale[i]);
      EXPECT_NEAR(static_cast<double>(g[i].x), want.grad[i].x, gb) << when << ", electron " << i;
      EXPECT_NEAR(static_cast<double>(g[i].y), want.grad[i].y, gb) << when << ", electron " << i;
      EXPECT_NEAR(static_cast<double>(g[i].z), want.grad[i].z, gb) << when << ", electron " << i;
      EXPECT_NEAR(static_cast<double>(l[i]), want.lap[i], within(want.lap_scale[i]))
          << when << ", electron " << i;
    }
    return within(want.u_scale);
  };
  const double bound = check_full("fresh");

  Xoshiro256 rng(32);
  for (int m = 0; m < 40; ++m) {
    const int iel = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const Vec3<double> rd = lattice.to_cartesian(Vec3<double>{rng.uniform(), rng.uniform(), rng.uniform()});
    const Vec3<T> rnew{static_cast<T>(rd.x), static_cast<T>(rd.y), static_cast<T>(rd.z)};
    table.compute_temp(elec, rnew, iel);
    EXPECT_NEAR(static_cast<double>(j2.ratio_log(table, iel)), oracle.ratio_log(iel, widen(rnew)),
                bound)
        << "move " << m;
    if (m % 4 != 3) {
      table.accept_move(iel);
      elec.set(iel, rnew);
      oracle.pos[static_cast<std::size_t>(iel)] = widen(rnew);
    }
  }
  check_full("after 30 accepted moves");
}

} // namespace

// Tolerances, as fractions of each sum's magnitude: in double the tables
// and the oracle differ only in rounding (fractional-coordinate against
// per-component minimum image, summation order), so 1e-13; in float the
// displacements, the spline and the sums each round at float precision, so
// 2e-5.  A native x86-64 build's worst cases were 1.3e-15 and 3.2e-6.
TEST(J2, KnownAnswerPairSumSoA)
{
  check_j2_against_oracle<double, true>(1e-13);
  check_j2_against_oracle<float, true>(2e-5);
}

TEST(J2, KnownAnswerPairSumAoS)
{
  check_j2_against_oracle<double, false>(1e-13);
  check_j2_against_oracle<float, false>(2e-5);
}

TEST(J1, ValueMatchesBruteForce)
{
  JFixture f;
  DistanceTableAB_SoA<double> t(f.lattice, f.ions_soa, f.elec_soa.size());
  t.evaluate(f.elec_soa);
  const OneBodyJastrowSoA<double> j1(f.fj1);
  std::vector<Vec3<double>> g(static_cast<std::size_t>(f.elec_soa.size()));
  std::vector<double> l(static_cast<std::size_t>(f.elec_soa.size()));
  EXPECT_NEAR(j1.evaluate_log(t, g.data(), l.data()), brute_log_j1(f), 1e-9);
}

TEST(J1, AoSAndSoAAgree)
{
  JFixture f;
  DistanceTableAB_AoS<double> ta(f.lattice, f.ions_aos, f.elec_aos.size());
  DistanceTableAB_SoA<double> ts(f.lattice, f.ions_soa, f.elec_soa.size());
  ta.evaluate(f.elec_aos);
  ts.evaluate(f.elec_soa);
  const OneBodyJastrowAoS<double> ja(f.fj1);
  const OneBodyJastrowSoA<double> js(f.fj1);
  const int n = f.elec_soa.size();
  std::vector<Vec3<double>> ga(static_cast<std::size_t>(n)), gs(static_cast<std::size_t>(n));
  std::vector<double> la(static_cast<std::size_t>(n)), ls(static_cast<std::size_t>(n));
  EXPECT_NEAR(ja.evaluate_log(ta, ga.data(), la.data()), js.evaluate_log(ts, gs.data(), ls.data()),
              1e-9);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ga[static_cast<std::size_t>(i)].z, gs[static_cast<std::size_t>(i)].z, 1e-9);
    EXPECT_NEAR(la[static_cast<std::size_t>(i)], ls[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(J1, RatioMatchesRecompute)
{
  JFixture f;
  const int n = f.elec_soa.size();
  DistanceTableAB_SoA<double> t(f.lattice, f.ions_soa, n);
  t.evaluate(f.elec_soa);
  const OneBodyJastrowSoA<double> j1(f.fj1);
  std::vector<Vec3<double>> g(static_cast<std::size_t>(n));
  std::vector<double> l(static_cast<std::size_t>(n));
  const double before = j1.evaluate_log(t, g.data(), l.data());

  const int iel = 2;
  const Vec3<double> rnew{0.5, 0.5, 0.5};
  t.compute_temp(rnew);
  const double ratio = j1.ratio_log(t, iel);

  auto elec = f.elec_soa;
  elec.set(iel, rnew);
  DistanceTableAB_SoA<double> t2(f.lattice, f.ions_soa, n);
  t2.evaluate(elec);
  const double after = j1.evaluate_log(t2, g.data(), l.data());
  EXPECT_NEAR(ratio, after - before, 1e-9);
}

namespace {

/// A distance row of @p n entries in [0, 1.3 rc) that also holds the
/// self-distance sentinel and entries exactly at and just beyond the cutoff.
template <typename T>
aligned_vector<T> lane_test_row(int n, T rc, std::uint64_t seed)
{
  Xoshiro256 rng(seed);
  aligned_vector<T> row(static_cast<std::size_t>(n));
  for (T& r : row)
    r = static_cast<T>(rng.uniform(0.0, 1.3 * static_cast<double>(rc)));
  const std::size_t last = row.size() - 1;
  row[last / 2] = kSelfDistance<T>;
  row[last / 3] = rc;
  row[last] = std::nextafter(rc, T(10));
  return row;
}

/// sum_row in the documented fixed lane order (common/simd.h), written as a
/// scalar loop: partial sum k over the entries j = k (mod 8) in increasing j,
/// combined pairwise.  Each entry's u is sum_row of that entry alone (one
/// term, so no order), which is the kernel's own per-entry arithmetic;
/// evaluate_row rounds some entries differently under FMA contraction.
template <typename T>
T lane_order_reference(const BsplineJastrowFunctor<T>& f, const aligned_vector<T>& row)
{
  T s[8] = {};
  for (std::size_t j = 0; j < row.size(); ++j)
    s[j % 8] += f.sum_row(&row[j], 1);
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

template <typename T>
void check_sum_row_lane_order()
{
  const T rc = T(2.5);
  const auto f = BsplineJastrowFunctor<T>::make_exponential(T(-0.5), T(1), rc);
  for (const int n : {1, 7, 8, 9, 64, 255, 256, 259}) {
    const aligned_vector<T> row = lane_test_row<T>(n, rc, 100 + static_cast<std::uint64_t>(n));
    EXPECT_EQ(f.sum_row(row.data(), n), lane_order_reference(f, row)) << "n = " << n;
  }
}

} // namespace

TEST(Jastrow, SumRowFollowsTheFixedLaneOrder)
{
  check_sum_row_lane_order<float>();
  check_sum_row_lane_order<double>();

  // Both SoA ratios are exactly the difference of the two row sums.
  JFixture fx(19, 13);
  const int n = fx.elec_soa.size();
  DistanceTableAA_SoA<double> ee(fx.lattice, n);
  DistanceTableAB_SoA<double> ei(fx.lattice, fx.ions_soa, n);
  ee.evaluate(fx.elec_soa);
  ei.evaluate(fx.elec_soa);
  const TwoBodyJastrowSoA<double> j2(fx.fj2);
  const OneBodyJastrowSoA<double> j1(fx.fj1);
  const Vec3<double> rnew{2.1, 0.4, 5.0};
  for (const int iel : {0, 7, n - 1}) {
    ee.compute_temp(fx.elec_soa, rnew, iel);
    ei.compute_temp(rnew);
    EXPECT_EQ(j2.ratio_log(ee, iel),
              fx.fj2.sum_row(ee.old_r(), n) - fx.fj2.sum_row(ee.temp_r(), n))
        << "iel = " << iel;
    const int ns = ei.num_sources();
    EXPECT_EQ(j1.ratio_log(ei, iel),
              fx.fj1.sum_row(ei.dist_row(iel), ns) - fx.fj1.sum_row(ei.temp_r(), ns))
        << "iel = " << iel;
  }
}
