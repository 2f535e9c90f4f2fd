// The core correctness matrix: every optimized engine (AoS baseline, SoA,
// AoSoA) against the scalar reference evaluator across parameterized
// (grid, N, tile) sweeps in both precisions, plus physics-level checks
// against analytic plane-wave orbitals (gradient, Hessian, Laplacian),
// periodic wrapping, and thread-safety of the shared coefficient table.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/bspline_aos.h"
#include "core/bspline_ref.h"
#include "core/bspline_soa.h"
#include "core/multi_bspline.h"
#include "core/synthetic_orbitals.h"
#include "qmc/walker.h"
#include "test_utils.h"

using namespace mqc;
using mqc::test::engine_tol;
using mqc::test::random_positions;

namespace {

/// Evaluate all three engines at one position and compare every output
/// component against the double-precision reference.
template <typename T>
void check_all_engines_at(const std::shared_ptr<CoefStorage<T>>& coefs, int tile, T x, T y, T z)
{
  const int n = coefs->num_splines();
  const double tol = engine_tol<T>();

  BsplineRef<T> ref(*coefs);
  const RefVGH r = ref.evaluate_vgh(x, y, z);
  const auto lap = ref.laplacian(r);

  BsplineAoS<T> aos(coefs);
  BsplineSoA<T> soa(coefs);
  MultiBspline<T> mb(*coefs, tile);

  WalkerAoS<T> wa(aos.padded_splines());
  WalkerSoA<T> ws(soa.out_stride());
  WalkerSoA<T> wm(mb.out_stride());
  WalkerAoS<T> wa_l(aos.padded_splines());
  WalkerSoA<T> ws_l(soa.out_stride());
  WalkerSoA<T> wm_l(mb.out_stride());

  aos.evaluate_vgh(x, y, z, wa.v.data(), wa.g.data(), wa.h.data());
  soa.evaluate_vgh(x, y, z, ws.v.data(), ws.g.data(), ws.h.data());
  mb.evaluate_vgh(x, y, z, wm.v.data(), wm.g.data(), wm.h.data(), wm.stride);
  aos.evaluate_vgl(x, y, z, wa_l.v.data(), wa_l.g.data(), wa_l.l.data());
  soa.evaluate_vgl(x, y, z, ws_l.v.data(), ws_l.g.data(), ws_l.l.data(), ws_l.stride);
  mb.evaluate_vgl(x, y, z, wm_l.v.data(), wm_l.g.data(), wm_l.l.data(), wm_l.stride);

  // AoSoA slices: orbital n of tile t lives at offset(t) + (n - t*tile).
  auto mb_idx = [&](int orb) {
    const int t = orb / tile;
    return mb.tile_offset(t) + static_cast<std::size_t>(orb - t * tile);
  };

  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const std::size_t m = mb_idx(i);
    const double scale = std::max(1.0, std::abs(r.v[u]));
    // Values, all engines and both kernels.
    ASSERT_NEAR(wa.v[u], r.v[u], tol * scale);
    ASSERT_NEAR(ws.v[u], r.v[u], tol * scale);
    ASSERT_NEAR(wm.v[m], r.v[u], tol * scale);
    ASSERT_NEAR(wa_l.v[u], r.v[u], tol * scale);
    ASSERT_NEAR(ws_l.v[u], r.v[u], tol * scale);
    ASSERT_NEAR(wm_l.v[m], r.v[u], tol * scale);
    // Gradients: AoS strided vs SoA streams vs tiled slices.  Derivatives
    // carry a delta_inv factor, so scale the tolerance with their magnitude.
    const double gscale =
        std::max({1.0, std::abs(r.gx[u]), std::abs(r.gy[u]), std::abs(r.gz[u])});
    ASSERT_NEAR(wa.g[3 * u + 0], r.gx[u], tol * gscale);
    ASSERT_NEAR(wa.g[3 * u + 1], r.gy[u], tol * gscale);
    ASSERT_NEAR(wa.g[3 * u + 2], r.gz[u], tol * gscale);
    ASSERT_NEAR(ws.gx()[u], r.gx[u], tol * gscale);
    ASSERT_NEAR(ws.gy()[u], r.gy[u], tol * gscale);
    ASSERT_NEAR(ws.gz()[u], r.gz[u], tol * gscale);
    ASSERT_NEAR(wm.gx()[m], r.gx[u], tol * gscale);
    ASSERT_NEAR(wm.gy()[m], r.gy[u], tol * gscale);
    ASSERT_NEAR(wm.gz()[m], r.gz[u], tol * gscale);
    // Hessians: AoS full 3x3 (with symmetry) vs SoA 6 unique components.
    const double href[6] = {r.hxx[u], r.hxy[u], r.hxz[u], r.hyy[u], r.hyz[u], r.hzz[u]};
    double hmax = 1.0;
    for (double hv : href)
      hmax = std::max(hmax, std::abs(hv));
    const int aos_of_soa[6] = {0, 1, 2, 4, 5, 8}; // xx xy xz yy yz zz in 3x3
    for (int q = 0; q < 6; ++q) {
      ASSERT_NEAR(wa.h[9 * u + static_cast<std::size_t>(aos_of_soa[q])], href[q], tol * hmax);
      ASSERT_NEAR(ws.hcomp(q)[u], href[q], tol * hmax);
      ASSERT_NEAR(wm.hcomp(q)[m], href[q], tol * hmax);
    }
    // AoS Hessian symmetry mirror entries.
    ASSERT_EQ(wa.h[9 * u + 3], wa.h[9 * u + 1]);
    ASSERT_EQ(wa.h[9 * u + 6], wa.h[9 * u + 2]);
    ASSERT_EQ(wa.h[9 * u + 7], wa.h[9 * u + 5]);
    // Laplacians against the Hessian trace.
    ASSERT_NEAR(wa_l.l[u], lap[u], tol * hmax * 3);
    ASSERT_NEAR(ws_l.l[u], lap[u], tol * hmax * 3);
    ASSERT_NEAR(wm_l.l[m], lap[u], tol * hmax * 3);
    // VGL gradients match VGH gradients.
    ASSERT_NEAR(ws_l.gx()[u], r.gx[u], tol * gscale);
    ASSERT_NEAR(wa_l.g[3 * u + 0], r.gx[u], tol * gscale);
  }

  // V kernel on its own.
  const auto vr = ref.evaluate_v(x, y, z);
  aos.evaluate_v(x, y, z, wa.v.data());
  soa.evaluate_v(x, y, z, ws.v.data());
  mb.evaluate_v(x, y, z, wm.v.data());
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const double scale = std::max(1.0, std::abs(vr[u]));
    ASSERT_NEAR(wa.v[u], vr[u], tol * scale);
    ASSERT_NEAR(ws.v[u], vr[u], tol * scale);
    ASSERT_NEAR(wm.v[mb_idx(i)], vr[u], tol * scale);
  }
}

} // namespace

// ---------------------------------------------------------------------------
// Parameterized sweep: (grid points, N, tile size)
// ---------------------------------------------------------------------------

class EngineSweepF : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(EngineSweepF, AllEnginesMatchReference_Float)
{
  const auto [ng, n, tile] = GetParam();
  const auto grid = Grid3D<float>::cube(ng, 3.7f);
  auto coefs = make_random_storage<float>(grid, n, 1234 + static_cast<std::uint64_t>(n));
  for (const auto& p : random_positions(grid, 6, 99, /*beyond_domain=*/true))
    check_all_engines_at(coefs, tile, p[0], p[1], p[2]);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndSizes, EngineSweepF,
    ::testing::Values(std::make_tuple(8, 16, 16), std::make_tuple(8, 32, 16),
                      std::make_tuple(12, 48, 16), std::make_tuple(12, 64, 32),
                      std::make_tuple(16, 128, 32), std::make_tuple(16, 128, 64),
                      std::make_tuple(8, 128, 128), std::make_tuple(9, 80, 16),
                      std::make_tuple(11, 96, 48), std::make_tuple(16, 100, 32)));

class EngineSweepD : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(EngineSweepD, AllEnginesMatchReference_Double)
{
  const auto [ng, n, tile] = GetParam();
  const auto grid = Grid3D<double>::cube(ng, 2.1);
  auto coefs = make_random_storage<double>(grid, n, 4321 + static_cast<std::uint64_t>(n));
  for (const auto& p : random_positions(grid, 6, 55, /*beyond_domain=*/true))
    check_all_engines_at(coefs, tile, p[0], p[1], p[2]);
}

INSTANTIATE_TEST_SUITE_P(GridsAndSizes, EngineSweepD,
                         ::testing::Values(std::make_tuple(8, 16, 8), std::make_tuple(12, 40, 8),
                                           std::make_tuple(16, 64, 16),
                                           std::make_tuple(10, 56, 24),
                                           std::make_tuple(16, 96, 96)));

// ---------------------------------------------------------------------------
// Anisotropic grid: different spacing per axis must scale derivatives right.
// ---------------------------------------------------------------------------

TEST(Engines, AnisotropicGridDerivativeScaling)
{
  Grid3D<double> grid(Grid1D<double>(0.0, 1.0, 8), Grid1D<double>(0.0, 2.0, 10),
                      Grid1D<double>(0.0, 4.0, 12));
  auto coefs = make_random_storage<double>(grid, 16, 7);
  for (const auto& p : random_positions(grid, 8, 3))
    check_all_engines_at(coefs, 8, p[0], p[1], p[2]);
}

// ---------------------------------------------------------------------------
// Periodicity: x and x + L give identical outputs.
// ---------------------------------------------------------------------------

TEST(Engines, PeriodicImagesAreIdentical)
{
  const auto grid = Grid3D<double>::cube(12, 1.5);
  auto coefs = make_random_storage<double>(grid, 32, 21);
  BsplineSoA<double> soa(coefs);
  WalkerSoA<double> w0(soa.out_stride()), w1(soa.out_stride());
  Xoshiro256 rng(5);
  for (int s = 0; s < 10; ++s) {
    const double x = rng.uniform(0.0, 1.5), y = rng.uniform(0.0, 1.5), z = rng.uniform(0.0, 1.5);
    soa.evaluate_vgh(x, y, z, w0.v.data(), w0.g.data(), w0.h.data());
    soa.evaluate_vgh(x + 1.5, y - 3.0, z + 4.5, w1.v.data(), w1.g.data(), w1.h.data());
    for (int n = 0; n < 32; ++n) {
      ASSERT_NEAR(w0.v[static_cast<std::size_t>(n)], w1.v[static_cast<std::size_t>(n)], 1e-9);
      ASSERT_NEAR(w0.gx()[static_cast<std::size_t>(n)], w1.gx()[static_cast<std::size_t>(n)], 1e-9);
      ASSERT_NEAR(w0.hcomp(5)[static_cast<std::size_t>(n)], w1.hcomp(5)[static_cast<std::size_t>(n)],
                  1e-8);
    }
  }
}

// ---------------------------------------------------------------------------
// Constant spline: value == constant, all derivatives vanish (partition of
// unity propagated through every engine).
// ---------------------------------------------------------------------------

TEST(Engines, ConstantSplineHasZeroDerivatives)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = std::make_shared<CoefStorage<float>>(grid, 16);
  for (int i = 0; i < 11; ++i)
    for (int j = 0; j < 11; ++j)
      for (int k = 0; k < 11; ++k)
        for (int n = 0; n < 16; ++n)
          coefs->set_coef(i, j, k, n, 3.25f);
  MultiBspline<float> mb(*coefs, 16);
  WalkerSoA<float> w(mb.out_stride());
  mb.evaluate_vgh(0.123f, 0.456f, 0.789f, w.v.data(), w.g.data(), w.h.data(), w.stride);
  for (int n = 0; n < 16; ++n) {
    EXPECT_NEAR(w.v[static_cast<std::size_t>(n)], 3.25f, 1e-5);
    EXPECT_NEAR(w.gx()[static_cast<std::size_t>(n)], 0.0f, 2e-4);
    EXPECT_NEAR(w.gy()[static_cast<std::size_t>(n)], 0.0f, 2e-4);
    EXPECT_NEAR(w.gz()[static_cast<std::size_t>(n)], 0.0f, 2e-4);
    for (int q = 0; q < 6; ++q)
      EXPECT_NEAR(w.hcomp(q)[static_cast<std::size_t>(n)], 0.0f, 2e-3);
  }
}

// ---------------------------------------------------------------------------
// End-to-end physics: plane-wave orbitals through builder + engines must
// reproduce analytic values, gradients, Hessians and Laplacians.
// ---------------------------------------------------------------------------

TEST(Engines, PlaneWaveOrbitalsAnalyticDerivatives)
{
  const int ng = 32;
  const double L = 1.0;
  const auto grid = Grid3D<double>::cube(ng, L);
  const auto pw = PlaneWaveOrbitals::make(8, Vec3<double>{L, L, L}, 77);
  const auto coefs = build_planewave_storage(grid, pw);
  BsplineSoA<double> soa(coefs);
  WalkerSoA<double> w(soa.out_stride());
  WalkerSoA<double> wl(soa.out_stride());
  Xoshiro256 rng(31);
  for (int s = 0; s < 25; ++s) {
    const Vec3<double> r{rng.uniform(0, L), rng.uniform(0, L), rng.uniform(0, L)};
    soa.evaluate_vgh(r.x, r.y, r.z, w.v.data(), w.g.data(), w.h.data());
    soa.evaluate_vgl(r.x, r.y, r.z, wl.v.data(), wl.g.data(), wl.l.data());
    for (int n = 0; n < 8; ++n) {
      const auto u = static_cast<std::size_t>(n);
      // Interpolation error bounds: O(h^4) value, O(h^3) gradient, O(h^2)
      // Hessian; kh ~ 2*pi/32 here.
      EXPECT_NEAR(w.v[u], pw.value(n, r), 5e-4);
      const auto g = pw.gradient(n, r);
      const double gs = std::max(1.0, norm(g));
      EXPECT_NEAR(w.gx()[u], g.x, 5e-3 * gs);
      EXPECT_NEAR(w.gy()[u], g.y, 5e-3 * gs);
      EXPECT_NEAR(w.gz()[u], g.z, 5e-3 * gs);
      double h[6];
      pw.hessian(n, r, h);
      double hs = 1.0;
      for (double hv : h)
        hs = std::max(hs, std::abs(hv));
      for (int q = 0; q < 6; ++q)
        EXPECT_NEAR(w.hcomp(q)[u], h[q], 3e-2 * hs) << "orb " << n << " comp " << q;
      EXPECT_NEAR(wl.l[u], pw.laplacian(n, r), 5e-2 * hs);
    }
  }
}

// ---------------------------------------------------------------------------
// Engine derivatives equal finite differences of the engine itself (catches
// any internal scaling mistake independent of the builder).
// ---------------------------------------------------------------------------

TEST(Engines, GradientMatchesFiniteDifferenceOfSpline)
{
  const auto grid = Grid3D<double>::cube(10, 2.0);
  auto coefs = make_random_storage<double>(grid, 8, 3);
  BsplineRef<double> ref(*coefs);
  const double h = 1e-6;
  Xoshiro256 rng(4);
  for (int s = 0; s < 10; ++s) {
    const double x = rng.uniform(0, 2), y = rng.uniform(0, 2), z = rng.uniform(0, 2);
    const auto r = ref.evaluate_vgh(x, y, z);
    const auto vxp = ref.evaluate_v(x + h, y, z);
    const auto vxm = ref.evaluate_v(x - h, y, z);
    const auto vyp = ref.evaluate_v(x, y + h, z);
    const auto vym = ref.evaluate_v(x, y - h, z);
    const auto vzp = ref.evaluate_v(x, y, z + h);
    const auto vzm = ref.evaluate_v(x, y, z - h);
    for (int n = 0; n < 8; ++n) {
      const auto u = static_cast<std::size_t>(n);
      EXPECT_NEAR(r.gx[u], (vxp[u] - vxm[u]) / (2 * h), 1e-5);
      EXPECT_NEAR(r.gy[u], (vyp[u] - vym[u]) / (2 * h), 1e-5);
      EXPECT_NEAR(r.gz[u], (vzp[u] - vzm[u]) / (2 * h), 1e-5);
    }
  }
}

// ---------------------------------------------------------------------------
// AoSoA tiling details.
// ---------------------------------------------------------------------------

TEST(MultiBspline, TileGeometry)
{
  const auto grid = Grid3D<float>::cube(6, 1.0f);
  auto coefs = make_random_storage<float>(grid, 100, 8);
  MultiBspline<float> mb(*coefs, 32);
  EXPECT_EQ(mb.num_tiles(), 4); // 32+32+32+4
  EXPECT_EQ(mb.tile(0).num_splines(), 32);
  EXPECT_EQ(mb.tile(3).num_splines(), 4);
  EXPECT_EQ(mb.tile_offset(1), 32u);
  EXPECT_EQ(mb.tile_offset(3), 96u);
  EXPECT_EQ(mb.padded_splines(), 96u + aligned_size<float>(4));
  EXPECT_GT(mb.tile_bytes(0), 0u);
}

// The width contract holds in every build, not only under assert: a width
// below 1 is refused by name, and the tiles constructor refuses a set that
// is not a split at its width.
TEST(MultiBspline, TileWidthBelowOneThrows)
{
  const auto grid = Grid3D<float>::cube(4, 1.0f);
  auto coefs = make_random_storage<float>(grid, 32, 8);
  for (const int bad : {0, -16}) {
    try {
      MultiBspline<float> mb(*coefs, bad);
      ADD_FAILURE() << "tile_size " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(bad)), std::string::npos) << e.what();
    }
    EXPECT_THROW(MultiBspline<float>(std::shared_ptr<const CoefStorage<float>>(coefs), bad),
                 std::invalid_argument);
  }
  EXPECT_THROW(MultiBspline<float>(make_random_tiles<float>(grid, 32, 16, 8), 32),
               std::invalid_argument);
}

// A width that is not a lane multiple rounds up to one, so every tile but the
// last is padding-free and orbital n lands at output index n, as in BsplineSoA.
TEST(MultiBspline, NonLaneMultipleWidthRoundsUp)
{
  const auto grid = Grid3D<float>::cube(6, 1.0f);
  auto coefs = make_random_storage<float>(grid, 32, 12);
  const BsplineSoA<float> ref(coefs);
  const MultiBspline<float> mb(*coefs, 8);
  EXPECT_EQ(mb.tile_size(), 16);
  EXPECT_EQ(mb.num_tiles(), 2);
  ASSERT_EQ(mb.out_stride(), ref.out_stride());
  WalkerSoA<float> wr(ref.out_stride()), wm(mb.out_stride());
  for (const auto& p : mqc::test::random_positions(grid, 3, 13)) {
    ref.evaluate_vgh(p[0], p[1], p[2], wr.v.data(), wr.g.data(), wr.h.data());
    mb.evaluate_vgh(p[0], p[1], p[2], wm.v.data(), wm.g.data(), wm.h.data(), wm.stride);
    for (std::size_t n = 0; n < 32; ++n) {
      ASSERT_EQ(wr.v[n], wm.v[n]) << "orbital " << n;
      for (int c = 0; c < 3; ++c)
        ASSERT_EQ(wr.g[c * wr.stride + n], wm.g[c * wm.stride + n]) << "orbital " << n;
      for (int c = 0; c < 6; ++c)
        ASSERT_EQ(wr.h[c * wr.stride + n], wm.h[c * wm.stride + n]) << "orbital " << n;
    }
  }
}

TEST(MultiBspline, PerTileEvaluationEqualsWholeSet)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 64, 8);
  MultiBspline<float> mb(*coefs, 16);
  WalkerSoA<float> whole(mb.out_stride()), tiled(mb.out_stride());
  mb.evaluate_vgh(0.3f, 0.6f, 0.9f, whole.v.data(), whole.g.data(), whole.h.data(), whole.stride);
  // Evaluate tiles in scrambled order — they must be independent.
  for (int t : {3, 0, 2, 1})
    mb.evaluate_vgh_tile(t, 0.3f, 0.6f, 0.9f, tiled.v.data(), tiled.g.data(), tiled.h.data(),
                         tiled.stride);
  for (std::size_t i = 0; i < mb.padded_splines(); ++i) {
    ASSERT_FLOAT_EQ(whole.v[i], tiled.v[i]);
    ASSERT_FLOAT_EQ(whole.g[i], tiled.g[i]);
    ASSERT_FLOAT_EQ(whole.h[i], tiled.h[i]);
  }
}

// ---------------------------------------------------------------------------
// Multi-position evaluation layer: a block of P positions through
// evaluate_*_multi must match P single-position calls bit for bit (ULP
// tight) — both run the identical per-(i,j) kernels, only the weight
// precomputation and sweep order differ.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
void check_multi_matches_single(int ng, int n, int tile, int np_pos, std::uint64_t seed)
{
  const auto grid = Grid3D<T>::cube(ng, T(1.4));
  auto coefs = make_random_storage<T>(grid, n, seed);
  BsplineSoA<T> soa(coefs);
  MultiBspline<T> mb(*coefs, tile);

  Xoshiro256 rng(seed + 5);
  std::vector<Vec3<T>> pos(static_cast<std::size_t>(np_pos));
  for (auto& r : pos)
    r = Vec3<T>{static_cast<T>(rng.uniform(0.0, 1.4)), static_cast<T>(rng.uniform(0.0, 1.4)),
                static_cast<T>(rng.uniform(0.0, 1.4))};

  for (const bool tiled : {false, true}) {
    const std::size_t stride = tiled ? mb.out_stride() : soa.out_stride();
    std::vector<WalkerSoA<T>> single, multi;
    std::vector<T*> v, g, l, h;
    for (int p = 0; p < np_pos; ++p) {
      single.emplace_back(stride);
      multi.emplace_back(stride);
    }
    // Buffer pointers must be gathered after all emplace_backs (no realloc).
    for (int p = 0; p < np_pos; ++p) {
      auto& m = multi[static_cast<std::size_t>(p)];
      v.push_back(m.v.data());
      g.push_back(m.g.data());
      l.push_back(m.l.data());
      h.push_back(m.h.data());
    }

    // VGH.
    for (int p = 0; p < np_pos; ++p) {
      auto& s = single[static_cast<std::size_t>(p)];
      const auto& r = pos[static_cast<std::size_t>(p)];
      if (tiled)
        mb.evaluate_vgh(r.x, r.y, r.z, s.v.data(), s.g.data(), s.h.data(), stride);
      else
        soa.evaluate_vgh(r.x, r.y, r.z, s.v.data(), s.g.data(), s.h.data(), stride);
    }
    if (tiled)
      mb.evaluate_vgh_multi(pos.data(), np_pos, v.data(), g.data(), h.data(), stride);
    else
      soa.evaluate_vgh_multi(pos.data(), np_pos, v.data(), g.data(), h.data(), stride);
    for (int p = 0; p < np_pos; ++p) {
      const auto& s = single[static_cast<std::size_t>(p)];
      const auto& m = multi[static_cast<std::size_t>(p)];
      for (std::size_t i = 0; i < s.v.size(); ++i)
        ASSERT_EQ(s.v[i], m.v[i]) << (tiled ? "AoSoA" : "SoA") << " pos " << p;
      for (std::size_t i = 0; i < s.g.size(); ++i)
        ASSERT_EQ(s.g[i], m.g[i]);
      for (std::size_t i = 0; i < s.h.size(); ++i)
        ASSERT_EQ(s.h[i], m.h[i]);
    }

    // VGL.
    for (int p = 0; p < np_pos; ++p) {
      auto& s = single[static_cast<std::size_t>(p)];
      const auto& r = pos[static_cast<std::size_t>(p)];
      if (tiled)
        mb.evaluate_vgl(r.x, r.y, r.z, s.v.data(), s.g.data(), s.l.data(), stride);
      else
        soa.evaluate_vgl(r.x, r.y, r.z, s.v.data(), s.g.data(), s.l.data(), stride);
    }
    if (tiled)
      mb.evaluate_vgl_multi(pos.data(), np_pos, v.data(), g.data(), l.data(), stride);
    else
      soa.evaluate_vgl_multi(pos.data(), np_pos, v.data(), g.data(), l.data(), stride);
    for (int p = 0; p < np_pos; ++p) {
      const auto& s = single[static_cast<std::size_t>(p)];
      const auto& m = multi[static_cast<std::size_t>(p)];
      for (std::size_t i = 0; i < s.v.size(); ++i)
        ASSERT_EQ(s.v[i], m.v[i]);
      for (std::size_t i = 0; i < s.g.size(); ++i)
        ASSERT_EQ(s.g[i], m.g[i]);
      for (std::size_t i = 0; i < s.l.size(); ++i)
        ASSERT_EQ(s.l[i], m.l[i]);
    }

    // V.
    for (int p = 0; p < np_pos; ++p) {
      auto& s = single[static_cast<std::size_t>(p)];
      const auto& r = pos[static_cast<std::size_t>(p)];
      if (tiled)
        mb.evaluate_v(r.x, r.y, r.z, s.v.data());
      else
        soa.evaluate_v(r.x, r.y, r.z, s.v.data());
    }
    if (tiled)
      mb.evaluate_v_multi(pos.data(), np_pos, v.data());
    else
      soa.evaluate_v_multi(pos.data(), np_pos, v.data());
    for (int p = 0; p < np_pos; ++p)
      for (std::size_t i = 0; i < stride; ++i)
        ASSERT_EQ(single[static_cast<std::size_t>(p)].v[i],
                  multi[static_cast<std::size_t>(p)].v[i]);
  }
}

} // namespace

class MultiEvalSweepF : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(MultiEvalSweepF, MultiMatchesSingle_Float)
{
  const auto [ng, n, tile, np_pos] = GetParam();
  check_multi_matches_single<float>(ng, n, tile, np_pos, 808 + static_cast<std::uint64_t>(n));
}

// (grid, N, tile, P): exact tiling, remainder tiles (40 = 16+16+8,
// 100 = 32*3+4), single tile, and block sizes from 1 to 9.
INSTANTIATE_TEST_SUITE_P(GridsSizesBlocks, MultiEvalSweepF,
                         ::testing::Values(std::make_tuple(8, 64, 16, 4),
                                           std::make_tuple(12, 40, 16, 7),
                                           std::make_tuple(8, 100, 32, 9),
                                           std::make_tuple(10, 48, 48, 1),
                                           std::make_tuple(9, 80, 16, 3)));

class MultiEvalSweepD : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(MultiEvalSweepD, MultiMatchesSingle_Double)
{
  const auto [ng, n, tile, np_pos] = GetParam();
  check_multi_matches_single<double>(ng, n, tile, np_pos, 909 + static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(GridsSizesBlocks, MultiEvalSweepD,
                         ::testing::Values(std::make_tuple(8, 32, 8, 5),
                                           std::make_tuple(12, 40, 16, 6),
                                           std::make_tuple(10, 56, 24, 2)));

TEST(MultiEval, WeightTakingKernelMatchesPositionKernel)
{
  // evaluate_*_w with externally computed weights is the exact single-
  // position kernel (the multi layer's building block).
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 32, 3);
  BsplineSoA<float> soa(coefs);
  WalkerSoA<float> a(soa.out_stride()), b(soa.out_stride());
  const float x = 0.37f, y = 0.51f, z = 0.93f;
  soa.evaluate_vgh(x, y, z, a.v.data(), a.g.data(), a.h.data(), a.stride);
  BsplineWeights3D<float> w;
  compute_weights_vgh(coefs->grid(), x, y, z, w);
  soa.evaluate_vgh_w(w, b.v.data(), b.g.data(), b.h.data(), b.stride);
  for (std::size_t i = 0; i < soa.padded_splines(); ++i) {
    ASSERT_EQ(a.v[i], b.v[i]);
    ASSERT_EQ(a.g[i], b.g[i]);
    ASSERT_EQ(a.h[i], b.h[i]);
  }
}

// ---------------------------------------------------------------------------
// Thread safety: the coefficient table is shared read-only state; concurrent
// walkers must reproduce the serial result bit-for-bit.
// ---------------------------------------------------------------------------

TEST(Engines, ConcurrentWalkersMatchSerial)
{
  const auto grid = Grid3D<float>::cube(10, 1.0f);
  auto coefs = make_random_storage<float>(grid, 64, 15);
  BsplineSoA<float> soa(coefs);
  const auto pos = random_positions(grid, 8, 2);

  // Serial references.
  std::vector<WalkerSoA<float>> serial;
  for (const auto& p : pos) {
    serial.emplace_back(soa.out_stride());
    soa.evaluate_vgh(p[0], p[1], p[2], serial.back().v.data(), serial.back().g.data(),
                     serial.back().h.data());
  }

  std::vector<WalkerSoA<float>> parallel;
  for (std::size_t i = 0; i < pos.size(); ++i)
    parallel.emplace_back(soa.out_stride());
#pragma omp parallel for
  for (int i = 0; i < static_cast<int>(pos.size()); ++i)
    soa.evaluate_vgh(pos[static_cast<std::size_t>(i)][0], pos[static_cast<std::size_t>(i)][1],
                     pos[static_cast<std::size_t>(i)][2],
                     parallel[static_cast<std::size_t>(i)].v.data(),
                     parallel[static_cast<std::size_t>(i)].g.data(),
                     parallel[static_cast<std::size_t>(i)].h.data());

  for (std::size_t i = 0; i < pos.size(); ++i)
    for (std::size_t n = 0; n < 64; ++n) {
      ASSERT_EQ(serial[i].v[n], parallel[i].v[n]);
      ASSERT_EQ(serial[i].g[n], parallel[i].g[n]);
      ASSERT_EQ(serial[i].h[n], parallel[i].h[n]);
    }
}
