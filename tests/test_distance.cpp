// Tests for the distance tables: both kinds (AA, AB) and both layouts
// (AoS, SoA) against brute force, cross-layout equivalence, and the
// particle-by-particle temp/accept protocol.  The AA tables store no rows:
// their rows are read back through compute_row, recomputed from the
// positions the table tracks.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/distance_table.h"
#include "particles/graphite.h"

using namespace mqc;

namespace {

struct Fixture
{
  Lattice lattice = Lattice::orthorhombic(3.0, 3.5, 4.0);
  ParticleSetSoA<float> elec_soa;
  ParticleSetAoS<float> elec_aos;
  ParticleSetSoA<float> ions_soa;
  ParticleSetAoS<float> ions_aos;

  explicit Fixture(int nel = 24, int nion = 8, std::uint64_t seed = 42)
  {
    elec_soa = random_particles<float>(nel, lattice, seed);
    elec_aos = to_aos(elec_soa);
    ions_soa = random_particles<float>(nion, lattice, seed + 1);
    ions_aos = to_aos(ions_soa);
  }
};

double brute_distance(const Lattice& lat, Vec3<float> a, Vec3<float> b)
{
  const auto d = lat.min_image(Vec3<double>{double(a.x) - b.x, double(a.y) - b.y,
                                            double(a.z) - b.z},
                               MinImageMode::Exact);
  return norm(d);
}

/// Row @p i of an SoA e-e table, recomputed from its positions.
template <typename T>
struct SoARow
{
  aligned_vector<T> r, dx, dy, dz;
  SoARow(const DistanceTableAA_SoA<T>& t, int i)
      : r(t.row_stride()), dx(t.row_stride()), dy(t.row_stride()), dz(t.row_stride())
  {
    t.compute_row(i, r.data(), dx.data(), dy.data(), dz.data());
  }
};

/// Row @p i of an AoS e-e table, recomputed from its positions.
template <typename T>
struct AoSRow
{
  std::vector<T> r;
  std::vector<Vec3<T>> dr;
  AoSRow(const DistanceTableAA_AoS<T>& t, int i)
      : r(static_cast<std::size_t>(t.size())), dr(static_cast<std::size_t>(t.size()))
  {
    t.compute_row(i, r.data(), dr.data());
  }
};

/// Index of the first of @p n entries whose bits differ, or -1.
template <typename T>
int first_bit_difference(const T* a, const T* b, int n)
{
  for (int j = 0; j < n; ++j)
    if (std::memcmp(&a[j], &b[j], sizeof(T)) != 0)
      return j;
  return -1;
}

} // namespace

TEST(DistanceAA, AoSMatchesBruteForce)
{
  Fixture f;
  DistanceTableAA_AoS<float> tab(f.lattice, f.elec_aos.size());
  tab.evaluate(f.elec_aos);
  for (int i = 0; i < f.elec_aos.size(); ++i) {
    const AoSRow<float> row(tab, i);
    for (int j = 0; j < f.elec_aos.size(); ++j) {
      if (i == j) {
        EXPECT_GE(row.r[j], 1e9f);
        continue;
      }
      EXPECT_NEAR(row.r[j], brute_distance(f.lattice, f.elec_aos[i], f.elec_aos[j]), 1e-4);
    }
  }
}

TEST(DistanceAA, SoAMatchesAoS)
{
  Fixture f;
  DistanceTableAA_AoS<float> aos(f.lattice, f.elec_aos.size());
  DistanceTableAA_SoA<float> soa(f.lattice, f.elec_soa.size());
  aos.evaluate(f.elec_aos);
  soa.evaluate(f.elec_soa);
  for (int i = 0; i < f.elec_aos.size(); ++i) {
    const SoARow<float> s(soa, i);
    const AoSRow<float> a(aos, i);
    for (int j = 0; j < f.elec_aos.size(); ++j) {
      EXPECT_NEAR(s.r[j], a.r[j], 1e-4) << i << ',' << j;
      if (i != j) {
        EXPECT_NEAR(s.dx[j], a.dr[j].x, 1e-4);
      }
    }
  }
}

TEST(DistanceAA, DisplacementAntisymmetry)
{
  Fixture f;
  DistanceTableAA_SoA<float> soa(f.lattice, f.elec_soa.size());
  soa.evaluate(f.elec_soa);
  for (int i = 0; i < f.elec_soa.size(); ++i) {
    const SoARow<float> ri(soa, i);
    for (int j = 0; j < i; ++j) {
      const SoARow<float> rj(soa, j);
      EXPECT_NEAR(ri.dx[j], -rj.dx[i], 2e-4);
      EXPECT_NEAR(ri.dy[j], -rj.dy[i], 2e-4);
      EXPECT_NEAR(ri.dz[j], -rj.dz[i], 2e-4);
    }
  }
}

TEST(DistanceAA, DistanceConsistentWithDisplacement)
{
  Fixture f;
  DistanceTableAA_SoA<float> soa(f.lattice, f.elec_soa.size());
  soa.evaluate(f.elec_soa);
  for (int i = 0; i < f.elec_soa.size(); ++i) {
    const SoARow<float> row(soa, i);
    for (int j = 0; j < f.elec_soa.size(); ++j) {
      if (i == j)
        continue;
      const double d = std::sqrt(double(row.dx[j]) * row.dx[j] + double(row.dy[j]) * row.dy[j] +
                                 double(row.dz[j]) * row.dz[j]);
      EXPECT_NEAR(row.r[j], d, 1e-4);
    }
  }
}

TEST(DistanceAA, TempAcceptEqualsRebuild)
{
  Fixture f;
  DistanceTableAA_SoA<float> soa(f.lattice, f.elec_soa.size());
  DistanceTableAA_AoS<float> aos(f.lattice, f.elec_aos.size());
  soa.evaluate(f.elec_soa);
  aos.evaluate(f.elec_aos);

  // Move electron 5 and commit.
  const int iel = 5;
  const Vec3<float> rnew{0.4f, 2.9f, 1.7f};
  soa.compute_temp(f.elec_soa, rnew, iel);
  aos.compute_temp(f.elec_aos, rnew, iel);
  soa.accept_move(iel);
  aos.accept_move(iel);
  f.elec_soa.set(iel, rnew);
  f.elec_aos[iel] = rnew;

  DistanceTableAA_SoA<float> fresh(f.lattice, f.elec_soa.size());
  fresh.evaluate(f.elec_soa);
  for (int i = 0; i < f.elec_soa.size(); ++i) {
    const SoARow<float> s(soa, i), want(fresh, i);
    const AoSRow<float> a(aos, i);
    for (int j = 0; j < f.elec_soa.size(); ++j) {
      EXPECT_NEAR(s.r[j], want.r[j], 1e-4) << i << ',' << j;
      EXPECT_NEAR(a.r[j], want.r[j], 1e-4);
      EXPECT_NEAR(s.dx[j], want.dx[j], 2e-4);
    }
  }
}

TEST(DistanceAB, AoSMatchesBruteForce)
{
  Fixture f;
  DistanceTableAB_AoS<float> tab(f.lattice, f.ions_aos, f.elec_aos.size());
  tab.evaluate(f.elec_aos);
  for (int i = 0; i < f.elec_aos.size(); ++i)
    for (int j = 0; j < f.ions_aos.size(); ++j)
      EXPECT_NEAR(tab.dist(i, j), brute_distance(f.lattice, f.elec_aos[i], f.ions_aos[j]), 1e-4);
}

TEST(DistanceAB, SoAMatchesAoS)
{
  Fixture f;
  DistanceTableAB_AoS<float> aos(f.lattice, f.ions_aos, f.elec_aos.size());
  DistanceTableAB_SoA<float> soa(f.lattice, f.ions_soa, f.elec_soa.size());
  aos.evaluate(f.elec_aos);
  soa.evaluate(f.elec_soa);
  for (int i = 0; i < f.elec_aos.size(); ++i)
    for (int j = 0; j < f.ions_aos.size(); ++j) {
      EXPECT_NEAR(soa.dist_row(i)[j], aos.dist(i, j), 1e-4);
      EXPECT_NEAR(soa.dy_row(i)[j], aos.displ(i, j).y, 1e-4);
    }
}

TEST(DistanceAB, TempAcceptEqualsRowUpdate)
{
  Fixture f;
  DistanceTableAB_SoA<float> soa(f.lattice, f.ions_soa, f.elec_soa.size());
  soa.evaluate(f.elec_soa);
  const Vec3<float> rnew{1.0f, 1.0f, 1.0f};
  soa.compute_temp(rnew);
  soa.accept_move(3);
  DistanceTableAB_SoA<float> fresh(f.lattice, f.ions_soa, f.elec_soa.size());
  fresh.update_row(rnew, 3);
  for (int j = 0; j < f.ions_soa.size(); ++j)
    EXPECT_NEAR(soa.dist_row(3)[j], fresh.dist_row(3)[j], 1e-6);
}

TEST(DistanceSoA, HexagonalFastModeConsistentAcrossLayouts)
{
  // For the skewed graphite cell, Fast mode is an approximation — but it must
  // be the *same* approximation in both layouts so layout benchmarks compare
  // identical work.
  const auto sys = make_graphite_supercell(2, 2, 1);
  auto elec_soa = random_particles<float>(32, sys.lattice, 7);
  auto elec_aos = to_aos(elec_soa);
  DistanceTableAA_AoS<float> aos(sys.lattice, 32, MinImageMode::Fast);
  DistanceTableAA_SoA<float> soa(sys.lattice, 32, MinImageMode::Fast);
  aos.evaluate(elec_aos);
  soa.evaluate(elec_soa);
  for (int i = 0; i < 32; ++i) {
    const SoARow<float> s(soa, i);
    const AoSRow<float> a(aos, i);
    for (int j = 0; j < 32; ++j)
      EXPECT_NEAR(s.r[j], a.r[j], 2e-4) << i << ',' << j;
  }
}

TEST(DistanceSoA, ExactModeMatchesBruteForceOnHexagonal)
{
  const auto sys = make_graphite_supercell(1, 1, 1);
  auto elec_soa = random_particles<float>(16, sys.lattice, 8);
  DistanceTableAA_SoA<float> soa(sys.lattice, 16, MinImageMode::Exact);
  soa.evaluate(elec_soa);
  for (int i = 0; i < 16; ++i) {
    const SoARow<float> row(soa, i);
    for (int j = 0; j < 16; ++j) {
      if (i == j)
        continue;
      EXPECT_NEAR(row.r[j], brute_distance(sys.lattice, elec_soa[i], elec_soa[j]), 1e-4);
    }
  }
}

TEST(DistanceSoA, RowsAreAligned)
{
  Fixture f;
  DistanceTableAA_SoA<float> soa(f.lattice, f.elec_soa.size());
  soa.evaluate(f.elec_soa);
  soa.compute_temp(f.elec_soa, Vec3<float>{0.4f, 2.9f, 1.7f}, 5);
  EXPECT_EQ(soa.row_stride() % simd_lanes<float>, 0u);
  for (const float* row : {soa.temp_r(), soa.temp_dx(), soa.temp_dy(), soa.temp_dz(), soa.old_r()})
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row) % kAlignment, 0u);
}

// ---------------------------------------------------------------------------
// The AA table as a cache of the positions: incremental moves leave it equal
// to a fresh table on the same positions
// ---------------------------------------------------------------------------

namespace {

/// First column where row @p i of @p a and of @p b differ in any bit of a
/// distance or displacement, or -1.
int row_difference(const DistanceTableAA_SoA<float>& a, const DistanceTableAA_SoA<float>& b, int i)
{
  const SoARow<float> x(a, i), y(b, i);
  for (const auto& [p, q] : {std::pair{&x.r, &y.r}, std::pair{&x.dx, &y.dx},
                             std::pair{&x.dy, &y.dy}, std::pair{&x.dz, &y.dz}})
    if (const int j = first_bit_difference(p->data(), q->data(), a.size()); j >= 0)
      return j;
  return -1;
}

int row_difference(const DistanceTableAA_AoS<float>& a, const DistanceTableAA_AoS<float>& b, int i)
{
  const AoSRow<float> x(a, i), y(b, i);
  if (const int j = first_bit_difference(x.r.data(), y.r.data(), a.size()); j >= 0)
    return j;
  return first_bit_difference(x.dr.data(), y.dr.data(), a.size());
}

std::vector<float> recomputed_distances(const DistanceTableAA_SoA<float>& t, int i)
{
  const SoARow<float> row(t, i);
  return std::vector<float>(row.r.begin(), row.r.begin() + t.size());
}

std::vector<float> recomputed_distances(const DistanceTableAA_AoS<float>& t, int i)
{
  return AoSRow<float>(t, i).r;
}

/// 2,000 random compute_temp / accept_move calls, about 70% of them
/// accepted, on the electrons @p p.  Every old row must equal the mover's
/// compute_row distances, and afterwards every row must equal, bit for bit,
/// the row of a fresh table evaluated on the same positions.
template <typename Table, typename Set>
void check_random_walk(const Lattice& lattice, MinImageMode mode, Set p, std::uint64_t seed)
{
  constexpr int kMoves = 2000;
  const int n = p.size();
  Table table(lattice, n, mode);
  table.evaluate(p);
  Xoshiro256 rng(seed);
  int accepted = 0, old_row_differs = 0;
  for (int m = 0; m < kMoves; ++m) {
    const int e = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const Vec3<float> r = p[e];
    const Vec3<float> rnew{r.x + static_cast<float>(0.7 * rng.gaussian()),
                           r.y + static_cast<float>(0.7 * rng.gaussian()),
                           r.z + static_cast<float>(0.7 * rng.gaussian())};
    table.compute_temp(p, rnew, e);
    if (first_bit_difference(table.old_r(), recomputed_distances(table, e).data(), n) >= 0)
      ++old_row_differs;
    if (rng.uniform() < 0.7) {
      table.accept_move(e);
      p.set(e, rnew);
      ++accepted;
    }
  }
  EXPECT_EQ(old_row_differs, 0);
  EXPECT_GT(accepted, kMoves * 6 / 10);
  EXPECT_LT(accepted, kMoves * 8 / 10);

  Table fresh(lattice, n, mode);
  fresh.evaluate(p);
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(row_difference(table, fresh, i), -1) << "row " << i;
}

} // namespace

TEST(DistanceAA, RandomWalkMatchesAFreshTableOnGraphiteFast)
{
  const auto sys = make_graphite_supercell(4, 4, 1);
  const auto elec = random_particles<float>(sys.num_electrons(), sys.lattice, 11);
  check_random_walk<DistanceTableAA_SoA<float>>(sys.lattice, MinImageMode::Fast, elec, 21);
  check_random_walk<DistanceTableAA_AoS<float>>(sys.lattice, MinImageMode::Fast, to_aos(elec), 21);
}

TEST(DistanceAA, RandomWalkMatchesAFreshTableOnOrthorhombicExact)
{
  const Lattice lattice = Lattice::orthorhombic(5.0, 5.5, 6.0);
  const auto elec = random_particles<float>(64, lattice, 12);
  check_random_walk<DistanceTableAA_SoA<float>>(lattice, MinImageMode::Exact, elec, 22);
  check_random_walk<DistanceTableAA_AoS<float>>(lattice, MinImageMode::Exact, to_aos(elec), 22);
}

template <typename T>
void check_wrap_fraction_against_floor()
{
  constexpr T big = T(1) / std::numeric_limits<T>::epsilon();
  constexpr T inf = std::numeric_limits<T>::infinity();
  std::vector<T> inputs = {T(0),       T(-0.0),    T(0.5),        T(-0.5),     T(1.5),
                           T(-1.5),    T(-2.5),    big - T(0.5),  -big + T(0.5), big,
                           -big,       big + T(1), -big - T(1),   T(2) * big,  T(1e30),
                           T(-1e30),   std::numeric_limits<T>::denorm_min(),
                           -std::numeric_limits<T>::denorm_min(), inf,         -inf};
  for (const T x : {T(0.5), T(-0.5), T(1.5)}) {
    inputs.push_back(std::nextafter(x, inf));
    inputs.push_back(std::nextafter(x, -inf));
  }
  Xoshiro256 rng(5);
  for (int k = 0; k < 20000; ++k) {
    const double scale = std::ldexp(1.0, static_cast<int>(rng() % 70) - 8);
    inputs.push_back(static_cast<T>(rng.uniform(-scale, scale)));
  }
  // The same loop shape as the row kernel's, so the vector code is checked.
  std::vector<T> got(inputs.size());
  const int n = static_cast<int>(inputs.size());
  const T* MQC_RESTRICT in = inputs.data();
  T* MQC_RESTRICT out = got.data();
  MQC_SIMD
  for (int i = 0; i < n; ++i)
    out[i] = wrap_fraction(in[i]);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const T f = inputs[i];
    const T want = f - std::floor(f + T(0.5));
    EXPECT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
        << f << ": " << got[i] << " vs " << want;
  }
  EXPECT_TRUE(std::isnan(wrap_fraction(std::numeric_limits<T>::quiet_NaN())));
}

TEST(DistanceSoA, WrapFractionMatchesFloorBitForBit)
{
  // The row kernel's wrap floors without std::floor; its bits must be those
  // of f - std::floor(f + 1/2) for every input, in both precisions, in
  // scalar and in vector code.
  check_wrap_fraction_against_floor<float>();
  check_wrap_fraction_against_floor<double>();
}
