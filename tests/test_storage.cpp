// Tests for the 4D coefficient storage: padding/alignment guarantees, the
// periodic control-point scatter, tile splitting, deterministic fills, and
// the table allocator (core/table_memory.h).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <omp.h>

#include "core/bspline_ref.h"
#include "core/coef_storage.h"
#include "core/multi_bspline.h"
#include "core/synthetic_orbitals.h"
#include "core/table_memory.h"
#include "test_utils.h"

using namespace mqc;

TEST(Storage, PaddedStridesAndAlignment)
{
  const auto grid = Grid3D<float>::cube(5, 1.0f);
  CoefStorage<float> s(grid, 10); // pads to 16 for float
  EXPECT_EQ(s.num_splines(), 10);
  EXPECT_EQ(s.padded_splines(), 16u);
  EXPECT_EQ(s.stride_z(), 16u);
  EXPECT_EQ(s.stride_y(), 8u * 16u);
  EXPECT_EQ(s.stride_x(), 8u * 8u * 16u);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      for (int k = 0; k < 8; ++k)
        ASSERT_EQ(reinterpret_cast<std::uintptr_t>(s.row(i, j, k)) % kAlignment, 0u);
}

TEST(Storage, SizeBytesAccountsForPadding)
{
  const auto grid = Grid3D<double>::cube(4, 1.0);
  CoefStorage<double> s(grid, 3); // pads to 8 doubles
  EXPECT_EQ(s.size_bytes(), 7u * 7u * 7u * 8u * sizeof(double));
}

TEST(Storage, SetAndGetCoef)
{
  const auto grid = Grid3D<float>::cube(4, 1.0f);
  CoefStorage<float> s(grid, 4);
  s.set_coef(1, 2, 3, 2, 7.5f);
  EXPECT_FLOAT_EQ(s.coef(1, 2, 3, 2), 7.5f);
  EXPECT_FLOAT_EQ(s.coef(1, 2, 3, 1), 0.0f); // zero-initialized
}

// The periodic scatter must write a control point to *every* storage slot
// that aliases it: storage index m holds control index (m-1) mod n.
TEST(Storage, PeriodicControlPointAliasing)
{
  for (int n : {1, 2, 3, 5}) {
    const auto grid = Grid3D<double>::cube(n, 1.0);
    CoefStorage<double> s(grid, 1);
    // Write each control point a distinct value; verify all aliases.
    for (int ci = 0; ci < n; ++ci)
      for (int cj = 0; cj < n; ++cj)
        for (int ck = 0; ck < n; ++ck)
          s.set_control_point_periodic(ci, cj, ck, 0,
                                       100.0 * ci + 10.0 * cj + ck + 1.0);
    for (int i = 0; i < n + 3; ++i)
      for (int j = 0; j < n + 3; ++j)
        for (int k = 0; k < n + 3; ++k) {
          const int ci = ((i - 1) % n + n) % n;
          const int cj = ((j - 1) % n + n) % n;
          const int ck = ((k - 1) % n + n) % n;
          EXPECT_DOUBLE_EQ(s.coef(i, j, k, 0), 100.0 * ci + 10.0 * cj + ck + 1.0)
              << "n=" << n << " (" << i << ',' << j << ',' << k << ')';
        }
  }
}

TEST(Storage, FillRandomDeterministicAndBounded)
{
  const auto grid = Grid3D<float>::cube(6, 1.0f);
  CoefStorage<float> a(grid, 8), b(grid, 8);
  a.fill_random(99);
  b.fill_random(99);
  for (int i = 0; i < 9; ++i)
    for (int j = 0; j < 9; ++j)
      for (int k = 0; k < 9; ++k)
        for (int n = 0; n < 8; ++n) {
          ASSERT_FLOAT_EQ(a.coef(i, j, k, n), b.coef(i, j, k, n));
          ASSERT_GE(a.coef(i, j, k, n), -0.5f);
          ASSERT_LE(a.coef(i, j, k, n), 0.5f);
        }
  CoefStorage<float> c(grid, 8);
  c.fill_random(100);
  int diffs = 0;
  for (int n = 0; n < 8; ++n)
    diffs += (a.coef(2, 2, 2, n) != c.coef(2, 2, 2, n));
  EXPECT_GT(diffs, 0);
}

// fill_random keeps the historical draw order — one uniform draw per padded
// lane, row by row — so every logical coefficient is what it always was;
// padding lanes discard their draw and hold 0, as a tile copy's do.
template <typename T>
void expect_reference_draw(int ng, int n, std::uint64_t seed, std::size_t lanes)
{
  const auto grid = Grid3D<T>::cube(ng, T(1));
  CoefStorage<T> s(grid, n);
  ASSERT_EQ(s.padded_splines(), lanes);
  s.fill_random(seed);
  Xoshiro256 rng(seed);
  for (int i = 0; i < ng + 3; ++i)
    for (int j = 0; j < ng + 3; ++j)
      for (int k = 0; k < ng + 3; ++k)
        for (std::size_t l = 0; l < lanes; ++l) {
          const T drawn = static_cast<T>(rng.uniform(-0.5, 0.5));
          ASSERT_EQ(s.row(i, j, k)[l], static_cast<int>(l) < n ? drawn : T(0))
              << "N=" << n << " (" << i << ',' << j << ',' << k << ") lane " << l;
        }
}

TEST(Storage, FillRandomKeepsTheDrawOrderAndZeroesPadding)
{
  expect_reference_draw<float>(4, 10, 77, 16);
  expect_reference_draw<float>(4, 16, 78, 16);
  expect_reference_draw<double>(5, 3, 79, 8);
}

// The table builds run on the machine's team: fill_random_split hands each
// member a slab of x-planes from the advanced stream, and the MultiBspline
// copy split hands out (tile, x-plane) items.  Every team width must write
// the bytes of one serial single-stream loop.  On a 4^3 grid there are 7
// x-planes, so width 8 leaves a member without a slab.
namespace {

/// Sets the OpenMP team width for one scope and restores the old value.
class ScopedTeamWidth
{
public:
  explicit ScopedTeamWidth(int width) : saved_(omp_get_max_threads()) { omp_set_num_threads(width); }
  ~ScopedTeamWidth() { omp_set_num_threads(saved_); }
  ScopedTeamWidth(const ScopedTeamWidth&) = delete;
  ScopedTeamWidth& operator=(const ScopedTeamWidth&) = delete;

private:
  int saved_;
};

/// The untiled table of @p n splines drawn by expect_reference_draw's serial
/// loop: one draw per padded lane, row by row, 0 in padding lanes.
template <typename T>
CoefStorage<T> serial_draw(int ng, int n, std::uint64_t seed)
{
  CoefStorage<T> s(Grid3D<T>::cube(ng, T(1)), n);
  Xoshiro256 rng(seed);
  for (int i = 0; i < ng + 3; ++i)
    for (int j = 0; j < ng + 3; ++j)
      for (int k = 0; k < ng + 3; ++k)
        for (std::size_t l = 0; l < s.padded_splines(); ++l) {
          const T drawn = static_cast<T>(rng.uniform(-0.5, 0.5));
          s.row(i, j, k)[l] = static_cast<int>(l) < n ? drawn : T(0);
        }
  return s;
}

/// @p tile holds splines [first, first + tile.num_splines()) of @p ref,
/// byte for byte, with zero padding lanes.
void expect_tile_bytes(const CoefStorage<float>& ref, const CoefStorage<float>& tile, int first,
                       const std::string& what)
{
  const int ng = ref.grid().x.num;
  std::vector<float> want(tile.padded_splines());
  for (int i = 0; i < ng + 3; ++i)
    for (int j = 0; j < ng + 3; ++j)
      for (int k = 0; k < ng + 3; ++k) {
        std::fill(want.begin(), want.end(), 0.0f);
        std::copy_n(ref.row(i, j, k) + first, tile.num_splines(), want.begin());
        ASSERT_EQ(std::memcmp(tile.row(i, j, k), want.data(), want.size() * sizeof(float)), 0)
            << what << " (" << i << ',' << j << ',' << k << ')';
      }
}

} // namespace

TEST(Storage, TableBuildsWriteTheSingleStreamBytesAtEveryTeamWidth)
{
  constexpr int ng = 4;
  const auto grid = Grid3D<float>::cube(ng, 1.0f);
  const CoefStorage<float> ref_f = serial_draw<float>(ng, 10, 301); // 6 padding lanes
  const CoefStorage<double> ref_d = serial_draw<double>(ng, 3, 302); // 5 padding lanes
  const CoefStorage<float> ref_tiled = serial_draw<float>(ng, 40, 303);
  for (const int width : {1, 2, 3, 8}) {
    ScopedTeamWidth team(width);
    const std::string at = "width " + std::to_string(width);

    CoefStorage<float> f(grid, 10);
    f.fill_random(301);
    ASSERT_EQ(f.size_bytes(), ref_f.size_bytes());
    EXPECT_EQ(std::memcmp(f.row(0, 0, 0), ref_f.row(0, 0, 0), f.size_bytes()), 0)
        << "fill_random<float>, " << at;
    CoefStorage<double> d(Grid3D<double>::cube(ng, 1.0), 3);
    d.fill_random(302);
    ASSERT_EQ(d.size_bytes(), ref_d.size_bytes());
    EXPECT_EQ(std::memcmp(d.row(0, 0, 0), ref_d.row(0, 0, 0), d.size_bytes()), 0)
        << "fill_random<double>, " << at;

    // 40 splines at width 16: two full tiles and a remainder tile of 8.
    const CoefTables<float> tiles = make_random_tiles<float>(grid, 40, 16, 303);
    ASSERT_EQ(tiles.size(), 3u);
    EXPECT_EQ(tiles[2]->num_splines(), 8);
    for (std::size_t t = 0; t < tiles.size(); ++t)
      expect_tile_bytes(ref_tiled, *tiles[t], 16 * static_cast<int>(t),
                        "make_random_tiles tile " + std::to_string(t) + ", " + at);

    const MultiBspline<float> split(ref_tiled, 16);
    ASSERT_EQ(split.num_tiles(), 3);
    for (int t = 0; t < split.num_tiles(); ++t)
      expect_tile_bytes(ref_tiled, split.tile(t).coefs(), 16 * t,
                        "MultiBspline split tile " + std::to_string(t) + ", " + at);
  }
}

TEST(Storage, AssignSplineRangeExtractsTile)
{
  const auto grid = Grid3D<float>::cube(4, 1.0f);
  CoefStorage<float> full(grid, 48);
  full.fill_random(1);
  CoefStorage<float> tile(grid, 16);
  tile.assign_spline_range(full, 16, 16);
  for (int i = 0; i < 7; ++i)
    for (int j = 0; j < 7; ++j)
      for (int k = 0; k < 7; ++k)
        for (int n = 0; n < 16; ++n)
          ASSERT_FLOAT_EQ(tile.coef(i, j, k, n), full.coef(i, j, k, 16 + n));
}

TEST(Storage, PaddingLanesStayZeroAfterBuild)
{
  const int ng = 5;
  const auto grid = Grid3D<float>::cube(ng, 1.0f);
  CoefStorage<float> s(grid, 3); // padded to 16
  std::vector<double> samples(static_cast<std::size_t>(ng) * ng * ng, 1.0);
  set_spline_from_samples(s, 0, samples.data());
  for (int i = 0; i < ng + 3; ++i)
    for (int j = 0; j < ng + 3; ++j)
      for (int k = 0; k < ng + 3; ++k)
        for (std::size_t n = 3; n < s.padded_splines(); ++n)
          ASSERT_FLOAT_EQ(s.row(i, j, k)[n], 0.0f);
}

// ---------------------------------------------------------------------------
// The table allocator: 2 MiB and up is a huge-page-advised mapping, below
// that a zero-filled 64-byte aligned block.
// ---------------------------------------------------------------------------

namespace {

bool all_zero(const void* p, std::size_t bytes)
{
  const auto* b = static_cast<const unsigned char*>(p);
  return std::all_of(b, b + bytes, [](unsigned char c) { return c == 0; });
}

/// The process's virtual size in kB (VmSize): a mapping left behind grows it.
std::size_t virtual_kb()
{
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmSize:", 0) == 0)
      return std::stoul(line.substr(7));
  return 0;
}

} // namespace

TEST(TableMemory, LargeTablesAreHugePageAlignedZeroAndCopyEqual)
{
  // 32^3 rows x 16 floats = exactly 2 MiB, and one element more.
  const auto grid = Grid3D<float>::cube(29, 1.0f);
  CoefStorage<float> s(grid, 16);
  ASSERT_EQ(s.size_bytes(), kHugePageBytes);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.row(0, 0, 0)) % kHugePageBytes, 0u);
  EXPECT_TRUE(all_zero(s.row(0, 0, 0), s.size_bytes())); // zero before any write
  s.fill_random(5);

  const CoefStorage<float> copy(s);
  EXPECT_NE(copy.row(0, 0, 0), s.row(0, 0, 0));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.row(0, 0, 0)) % kHugePageBytes, 0u);
  EXPECT_EQ(0, std::memcmp(copy.row(0, 0, 0), s.row(0, 0, 0), s.size_bytes()));

  const TableBlock at(kHugePageBytes / sizeof(float), sizeof(float));
  const TableBlock below(kHugePageBytes / sizeof(float) - 1, sizeof(float));
  EXPECT_TRUE(at.mapped());
  EXPECT_FALSE(below.mapped());
  EXPECT_EQ(below.size_bytes(), kHugePageBytes - sizeof(float)); // logical, not rounded
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(below.data()) % kAlignment, 0u);
  EXPECT_TRUE(all_zero(below.data(), below.size_bytes()));
}

TEST(TableMemory, LiveBytesFollowTheTables)
{
  const std::size_t before = live_table_bytes();
  {
    const auto grid = Grid3D<double>::cube(30, 1.0); // 33^3 x 8 doubles: mapped
    CoefStorage<double> big(grid, 5);
    CoefStorage<float> small(Grid3D<float>::cube(3, 1.0f), 5);
    const CoefStorage<double> copy(big);
    EXPECT_EQ(live_table_bytes() - before, 2 * big.size_bytes() + small.size_bytes());
  }
  EXPECT_EQ(live_table_bytes(), before);
}

TEST(TableMemory, OverflowingCountThrowsBadAllocWithoutMapping)
{
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / sizeof(float) + 1;
  // Warm up the exception path so its own allocations do not count below.
  EXPECT_THROW(TableBlock(huge, sizeof(float)), std::bad_alloc);
  const std::size_t vm = virtual_kb();
  const std::size_t live = live_table_bytes();
  EXPECT_THROW(TableBlock(huge, sizeof(float)), std::bad_alloc);
  // count * size fits, but rounding it up to whole 2 MiB pages would not.
  EXPECT_THROW(TableBlock(std::numeric_limits<std::size_t>::max() - kHugePageBytes, 1),
               std::bad_alloc);
  EXPECT_EQ(virtual_kb(), vm);
  EXPECT_EQ(live_table_bytes(), live);
}

// ---------------------------------------------------------------------------
// convert_storage / convert_grid: the one sanctioned precision-cast seam
// (mixed-precision storage narrowing, PR: SP tables with DP accumulation).
// ---------------------------------------------------------------------------

TEST(ConvertStorage, NarrowingCopiesEveryLogicalEntry)
{
  const auto grid = Grid3D<double>::cube(5, 1.0);
  CoefStorage<double> src(grid, 20); // pads to 24 doubles, 32 floats
  src.fill_random(42);
  const auto dst = convert_storage<float>(src);
  EXPECT_EQ(dst->num_splines(), src.num_splines());
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      for (int k = 0; k < 8; ++k)
        for (int n = 0; n < 20; ++n)
          ASSERT_EQ(dst->coef(i, j, k, n), static_cast<float>(src.coef(i, j, k, n)))
              << '(' << i << ',' << j << ',' << k << ',' << n << ')';
}

// float pads to 16 lanes, double to 8: at N=20 the padded tails differ in
// length (32 vs 24) and must stay at the constructor's zeros on both sides.
TEST(ConvertStorage, PaddingTailStaysZeroAcrossLaneMismatch)
{
  const auto grid = Grid3D<double>::cube(4, 1.0);
  CoefStorage<double> src(grid, 20);
  src.fill_random(7);
  const auto dst = convert_storage<float>(src);
  EXPECT_EQ(dst->padded_splines(), 32u);
  EXPECT_EQ(src.padded_splines(), 24u);
  for (int i = 0; i < 7; ++i)
    for (int j = 0; j < 7; ++j)
      for (int k = 0; k < 7; ++k)
        for (std::size_t n = 20; n < dst->padded_splines(); ++n)
          ASSERT_EQ(dst->row(i, j, k)[n], 0.0f);
}

// Same-type conversion reconstructs the grid bit-for-bit (Grid1D recomputes
// delta from start/end/num exactly as the original constructor did) and
// round-tripping float->double->float is the identity (every float is
// exactly representable in double).
TEST(ConvertStorage, FloatRoundTripThroughDoubleIsIdentity)
{
  const auto grid = Grid3D<float>::cube(6, 1.0f);
  CoefStorage<float> src(grid, 12);
  src.fill_random(3);
  const auto wide = convert_storage<double>(src);
  const auto back = convert_storage<float>(*wide);
  EXPECT_EQ(back->grid().x.delta, src.grid().x.delta);
  EXPECT_EQ(back->grid().x.delta_inv, src.grid().x.delta_inv);
  for (int i = 0; i < 9; ++i)
    for (int j = 0; j < 9; ++j)
      for (int k = 0; k < 9; ++k)
        for (int n = 0; n < 12; ++n)
          ASSERT_EQ(back->coef(i, j, k, n), src.coef(i, j, k, n));
}

// A float table built directly from DP sources equals the convert_storage
// narrowing of the equivalent DP build: the driver's mixed engines may read
// the SAME float table the native-SP engines use.
TEST(ConvertStorage, DirectFloatBuildTracksNarrowedDoubleBuild)
{
  // A float-native build runs the whole spline solve in SP arithmetic, so it
  // is NOT bit-identical to the narrowed DP build — but both must land
  // within a few float ULPs of each other at the table's own scale.  (The
  // drivers share ONE narrowed-from-DP table between the SP-native and
  // mixed engines precisely because this gap is down in the noise.)
  const int ng = 12, n = 6;
  const auto pw = PlaneWaveOrbitals::make(n, Vec3<double>{1, 1, 1}, 3);
  const auto built_sp = build_planewave_storage(Grid3D<float>::cube(ng, 1.0f), pw);
  const auto built_dp = build_planewave_storage(Grid3D<double>::cube(ng, 1.0), pw);
  const auto narrowed = convert_storage<float>(*built_dp);
  double scale = 0.0;
  for (int i = 0; i < ng + 3; ++i)
    for (int j = 0; j < ng + 3; ++j)
      for (int k = 0; k < ng + 3; ++k)
        for (int s = 0; s < n; ++s)
          scale = std::max(scale, std::abs(static_cast<double>(narrowed->coef(i, j, k, s))));
  constexpr double kUlp = 1.1920928955078125e-7; // float epsilon
  for (int i = 0; i < ng + 3; ++i)
    for (int j = 0; j < ng + 3; ++j)
      for (int k = 0; k < ng + 3; ++k)
        for (int s = 0; s < n; ++s)
          ASSERT_LE(std::abs(static_cast<double>(built_sp->coef(i, j, k, s)) -
                             static_cast<double>(narrowed->coef(i, j, k, s))),
                    64.0 * kUlp * scale)
              << '(' << i << ',' << j << ',' << k << ',' << s << ')';
}

TEST(SyntheticOrbitals, KVectorsOrderedByShell)
{
  const auto set = PlaneWaveOrbitals::make(27, Vec3<double>{1, 1, 1});
  // Orbital 0 is the Gamma point (constant): zero gradient everywhere.
  const auto g = set.gradient(0, Vec3<double>{0.3, 0.4, 0.5});
  EXPECT_DOUBLE_EQ(norm2(g), 0.0);
  EXPECT_EQ(set.num_orbitals(), 27);
}

TEST(SyntheticOrbitals, LaplacianIsHessianTrace)
{
  const auto set = PlaneWaveOrbitals::make(10, Vec3<double>{2, 3, 4}, 5);
  for (int n = 0; n < 10; ++n) {
    const Vec3<double> r{0.7, 1.1, 2.9};
    double h[6];
    set.hessian(n, r, h);
    EXPECT_NEAR(set.laplacian(n, r), h[0] + h[3] + h[5], 1e-12);
  }
}

TEST(SyntheticOrbitals, GradientMatchesFiniteDifference)
{
  const auto set = PlaneWaveOrbitals::make(6, Vec3<double>{1.5, 1.5, 1.5}, 2);
  const double h = 1e-6;
  const Vec3<double> r{0.4, 0.9, 1.2};
  for (int n = 0; n < 6; ++n) {
    const auto g = set.gradient(n, r);
    const double fdx =
        (set.value(n, Vec3<double>{r.x + h, r.y, r.z}) - set.value(n, Vec3<double>{r.x - h, r.y, r.z})) /
        (2 * h);
    EXPECT_NEAR(g.x, fdx, 1e-6);
  }
}

TEST(SyntheticOrbitals, StorageBuilderMatchesAnalyticValues)
{
  const int ng = 20;
  const double L = 1.0;
  const auto grid = Grid3D<double>::cube(ng, L);
  const auto set = PlaneWaveOrbitals::make(4, Vec3<double>{L, L, L}, 3);
  const auto storage = build_planewave_storage(grid, set);
  BsplineRef<double> ref(*storage);
  Xoshiro256 rng(17);
  for (int s = 0; s < 40; ++s) {
    const double x = rng.uniform(0, L), y = rng.uniform(0, L), z = rng.uniform(0, L);
    const auto v = ref.evaluate_v(x, y, z);
    for (int n = 0; n < 4; ++n)
      EXPECT_NEAR(v[static_cast<std::size_t>(n)], set.value(n, Vec3<double>{x, y, z}), 5e-4);
  }
}
