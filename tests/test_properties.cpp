// Property-based tests on algebraic invariants of the spline system that
// must hold for *any* coefficients and positions:
//   * linearity of every kernel in the coefficient table,
//   * translation covariance on the periodic grid,
//   * evenness/oddness inheritance from symmetric coefficient tables,
//   * tiling invariance (any tile size gives the same orbital values),
//   * output determinism (same inputs, bit-identical outputs).
#include <cmath>
#include <cstring>
#include <ostream>
#include <tuple>

#include <gtest/gtest.h>

#include "core/bspline_soa.h"
#include "core/multi_bspline.h"
#include "core/synthetic_orbitals.h"
#include "core/tuner.h"
#include "qmc/walker.h"
#include "test_utils.h"

using namespace mqc;

namespace {

std::shared_ptr<CoefStorage<double>> scaled_sum(const CoefStorage<double>& a,
                                                const CoefStorage<double>& b, double alpha,
                                                double beta)
{
  auto out = std::make_shared<CoefStorage<double>>(a.grid(), a.num_splines());
  const int nx = a.grid().x.num + 3, ny = a.grid().y.num + 3, nz = a.grid().z.num + 3;
  for (int i = 0; i < nx; ++i)
    for (int j = 0; j < ny; ++j)
      for (int k = 0; k < nz; ++k)
        for (int n = 0; n < a.num_splines(); ++n)
          out->set_coef(i, j, k, n, alpha * a.coef(i, j, k, n) + beta * b.coef(i, j, k, n));
  return out;
}

} // namespace

// phi[alpha*P1 + beta*P2] == alpha*phi[P1] + beta*phi[P2] for every output
// component: the engines are linear maps of the coefficient table.
TEST(Properties, KernelsAreLinearInCoefficients)
{
  const auto grid = Grid3D<double>::cube(9, 1.3);
  auto p1 = make_random_storage<double>(grid, 24, 1);
  auto p2 = make_random_storage<double>(grid, 24, 2);
  const double alpha = 0.7, beta = -1.9;
  auto mix = scaled_sum(*p1, *p2, alpha, beta);

  BsplineSoA<double> e1(p1), e2(p2), em(mix);
  WalkerSoA<double> w1(e1.out_stride()), w2(e1.out_stride()), wm(e1.out_stride());
  for (const auto& pos : mqc::test::random_positions(grid, 6, 77)) {
    e1.evaluate_vgh(pos[0], pos[1], pos[2], w1.v.data(), w1.g.data(), w1.h.data());
    e2.evaluate_vgh(pos[0], pos[1], pos[2], w2.v.data(), w2.g.data(), w2.h.data());
    em.evaluate_vgh(pos[0], pos[1], pos[2], wm.v.data(), wm.g.data(), wm.h.data());
    for (int n = 0; n < 24; ++n) {
      const auto u = static_cast<std::size_t>(n);
      EXPECT_NEAR(wm.v[u], alpha * w1.v[u] + beta * w2.v[u], 1e-10);
      EXPECT_NEAR(wm.gx()[u], alpha * w1.gx()[u] + beta * w2.gx()[u], 1e-9);
      EXPECT_NEAR(wm.hcomp(3)[u], alpha * w1.hcomp(3)[u] + beta * w2.hcomp(3)[u], 1e-8);
    }
  }
}

// Shifting the evaluation point by exactly one grid cell equals shifting the
// coefficient table by one slot: translation covariance on the lattice.
TEST(Properties, GridTranslationCovariance)
{
  const int ng = 8;
  const auto grid = Grid3D<double>::cube(ng, 1.0);
  // Periodically consistent random control points (fill_random fills raw
  // storage slots and would leave the wrap layers inconsistent).
  auto p = std::make_shared<CoefStorage<double>>(grid, 8);
  Xoshiro256 rng(5);
  for (int ci = 0; ci < ng; ++ci)
    for (int cj = 0; cj < ng; ++cj)
      for (int ck = 0; ck < ng; ++ck)
        for (int n = 0; n < 8; ++n)
          p->set_control_point_periodic(ci, cj, ck, n, rng.uniform(-1.0, 1.0));

  // Build q with control points rolled by one cell in x:
  // q_c[i] = p_c[(i+1) mod ng]  =>  spline_q(x) == spline_p(x + delta).
  auto q = std::make_shared<CoefStorage<double>>(grid, 8);
  for (int ci = 0; ci < ng; ++ci)
    for (int cj = 0; cj < ng; ++cj)
      for (int ck = 0; ck < ng; ++ck)
        for (int n = 0; n < 8; ++n)
          q->set_control_point_periodic(
              ci, cj, ck, n, p->coef((ci + 1) % ng + 1, cj + 1, ck + 1, n));

  BsplineSoA<double> ep(p), eq(q);
  WalkerSoA<double> wp(ep.out_stride()), wq(eq.out_stride());
  const double delta = 1.0 / ng;
  for (const auto& pos : mqc::test::random_positions(grid, 8, 3)) {
    ep.evaluate_vgh(pos[0] + delta, pos[1], pos[2], wp.v.data(), wp.g.data(), wp.h.data());
    eq.evaluate_vgh(pos[0], pos[1], pos[2], wq.v.data(), wq.g.data(), wq.h.data());
    for (int n = 0; n < 8; ++n) {
      EXPECT_NEAR(wp.v[static_cast<std::size_t>(n)], wq.v[static_cast<std::size_t>(n)], 1e-10);
      EXPECT_NEAR(wp.gz()[static_cast<std::size_t>(n)], wq.gz()[static_cast<std::size_t>(n)],
                  1e-9);
    }
  }
}

// Any tile size must reproduce the untiled values exactly (same arithmetic
// on the same inputs — float equality, not tolerance).
struct TileCase
{
  int tile;
  int num_splines;
};

// The CTest name carries the tile width, as it did when the parameter was
// the width alone.
void PrintTo(const TileCase& c, std::ostream* os) { *os << c.tile; }

class TileInvariance : public ::testing::TestWithParam<TileCase>
{
};

TEST_P(TileInvariance, AoSoAValuesIndependentOfTileSize)
{
  const int tile = GetParam().tile;
  const int n_splines = GetParam().num_splines;
  const auto grid = Grid3D<float>::cube(10, 1.0f);
  auto coefs = make_random_storage<float>(grid, n_splines, 9);
  BsplineSoA<float> ref(coefs);
  MultiBspline<float> mb(*coefs, tile);
  WalkerSoA<float> wr(ref.out_stride()), wm(mb.out_stride());
  for (const auto& pos : mqc::test::random_positions(grid, 4, 4)) {
    ref.evaluate_vgh(pos[0], pos[1], pos[2], wr.v.data(), wr.g.data(), wr.h.data());
    mb.evaluate_vgh(pos[0], pos[1], pos[2], wm.v.data(), wm.g.data(), wm.h.data(), wm.stride);
    for (int n = 0; n < n_splines; ++n) {
      const int t = n / tile;
      const std::size_t m = mb.tile_offset(t) + static_cast<std::size_t>(n - t * tile);
      ASSERT_EQ(wr.v[static_cast<std::size_t>(n)], wm.v[m]) << "tile=" << tile << " n=" << n;
      ASSERT_EQ(wr.gx()[static_cast<std::size_t>(n)], wm.gx()[m]);
      ASSERT_EQ(wr.hcomp(5)[static_cast<std::size_t>(n)], wm.hcomp(5)[m]);
    }
  }
}

// The three ways to build an engine's tiles hold the same bytes, padding
// included: the reference split of an untiled table, the shared-table
// constructor (which adopts the table itself when it fits one tile), and
// tiles filled straight from the generator in the untiled draw order.
TEST_P(TileInvariance, AdoptedAndDirectTilesEqualTheSplit)
{
  const int tile = GetParam().tile;
  const int n_splines = GetParam().num_splines;
  const auto grid = Grid3D<float>::cube(10, 1.0f);
  auto full = make_random_storage<float>(grid, n_splines, 9);
  const MultiBspline<float> split(*full, tile);
  const MultiBspline<float> adopted(std::shared_ptr<const CoefStorage<float>>(full), tile);
  const MultiBspline<float> direct(make_random_tiles<float>(grid, n_splines, tile, 9), tile);
  if (n_splines <= tile) {
    EXPECT_EQ(&adopted.tile(0).coefs(), full.get()) << "one tile: the table itself";
  }
  for (const MultiBspline<float>* mb : {&adopted, &direct}) {
    ASSERT_EQ(mb->num_tiles(), split.num_tiles());
    ASSERT_EQ(mb->padded_splines(), split.padded_splines());
    for (int t = 0; t < split.num_tiles(); ++t) {
      const CoefStorage<float>& want = split.tile(t).coefs();
      const CoefStorage<float>& got = mb->tile(t).coefs();
      ASSERT_EQ(got.num_splines(), want.num_splines()) << "tile " << t;
      ASSERT_EQ(got.size_bytes(), want.size_bytes()) << "tile " << t;
      EXPECT_EQ(0, std::memcmp(got.row(0, 0, 0), want.row(0, 0, 0), want.size_bytes()))
          << "tile " << t << " of " << split.num_tiles();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileInvariance,
                         ::testing::Values(TileCase{16, 96}, TileCase{32, 96}, TileCase{48, 96},
                                           TileCase{96, 96}));

// The production width: two tiles of the host-resolved default plus a
// 40-orbital remainder whose padded tail is not a whole lane block.
INSTANTIATE_TEST_SUITE_P(ResolvedDefault, TileInvariance,
                         ::testing::Values(TileCase{host_tile_size<float>(),
                                                    2 * host_tile_size<float>() + 40}));

// Repeated evaluation is bit-identical (no hidden state in the engines).
TEST(Properties, EvaluationIsDeterministic)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 32, 11);
  BsplineSoA<float> e(coefs);
  WalkerSoA<float> w1(e.out_stride()), w2(e.out_stride());
  e.evaluate_vgh(0.911f, 0.132f, 0.557f, w1.v.data(), w1.g.data(), w1.h.data());
  e.evaluate_vgh(0.911f, 0.132f, 0.557f, w2.v.data(), w2.g.data(), w2.h.data());
  for (std::size_t n = 0; n < e.padded_splines(); ++n) {
    ASSERT_EQ(w1.v[n], w2.v[n]);
    ASSERT_EQ(w1.g[n], w2.g[n]);
    ASSERT_EQ(w1.h[n], w2.h[n]);
  }
}

// A coefficient table even under x -> -x (about the grid origin) yields
// even values and odd x-gradients at mirrored positions.
TEST(Properties, MirrorSymmetryInheritance)
{
  const int ng = 8;
  const auto grid = Grid3D<double>::cube(ng, 2.0);
  auto p = std::make_shared<CoefStorage<double>>(grid, 4);
  Xoshiro256 rng(13);
  // Build control points symmetric under ci -> (ng - ci) mod ng.
  for (int ci = 0; ci < ng; ++ci)
    for (int cj = 0; cj < ng; ++cj)
      for (int ck = 0; ck < ng; ++ck)
        for (int n = 0; n < 4; ++n) {
          const int mi = (ng - ci) % ng;
          if (ci <= mi) {
            const double val = rng.uniform(-1, 1);
            p->set_control_point_periodic(ci, cj, ck, n, val);
            p->set_control_point_periodic(mi, cj, ck, n, val);
          }
        }
  BsplineSoA<double> e(p);
  WalkerSoA<double> wp(e.out_stride()), wm(e.out_stride());
  Xoshiro256 prng(15);
  for (int s = 0; s < 6; ++s) {
    const double x = prng.uniform(0.0, 2.0), y = prng.uniform(0.0, 2.0),
                 z = prng.uniform(0.0, 2.0);
    e.evaluate_vgh(x, y, z, wp.v.data(), wp.g.data(), wp.h.data());
    e.evaluate_vgh(-x, y, z, wm.v.data(), wm.g.data(), wm.h.data());
    for (int n = 0; n < 4; ++n) {
      const auto u = static_cast<std::size_t>(n);
      EXPECT_NEAR(wp.v[u], wm.v[u], 1e-10);            // even
      EXPECT_NEAR(wp.gx()[u], -wm.gx()[u], 1e-9);      // odd
      EXPECT_NEAR(wp.gy()[u], wm.gy()[u], 1e-9);       // even
      EXPECT_NEAR(wp.hcomp(0)[u], wm.hcomp(0)[u], 1e-8); // hxx even
      EXPECT_NEAR(wp.hcomp(1)[u], -wm.hcomp(1)[u], 1e-8); // hxy odd
    }
  }
}
