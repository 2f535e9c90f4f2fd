// Tests for the batched multi-walker evaluation extension: equivalence with
// per-walker serial evaluation for every kernel, one position per tile pass
// (P = 1) and position blocks, across tile counts (including a remainder
// tile), population sizes, block sizes that do not divide the population,
// and both precisions.  Multi-vs-single comparisons are exact (ULP-tight):
// both paths run the identical per-(i,j) kernel, so outputs must match bit
// for bit.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/batched.h"
#include "core/synthetic_orbitals.h"
#include "test_utils.h"

using namespace mqc;

namespace {

template <typename T>
struct BatchFixtureT
{
  std::shared_ptr<CoefStorage<T>> coefs;
  std::unique_ptr<MultiBspline<T>> engine;
  std::vector<Vec3<T>> positions;
  std::vector<std::unique_ptr<WalkerSoA<T>>> serial, batched;
  std::vector<WalkerSoA<T>*> batched_ptrs;

  BatchFixtureT(int n, int tile, int nw, std::uint64_t seed)
  {
    const auto grid = Grid3D<T>::cube(8, T(1));
    coefs = make_random_storage<T>(grid, n, seed);
    engine = std::make_unique<MultiBspline<T>>(*coefs, tile);
    Xoshiro256 rng(seed + 1);
    for (int w = 0; w < nw; ++w) {
      positions.push_back(Vec3<T>{static_cast<T>(rng.uniform()), static_cast<T>(rng.uniform()),
                                  static_cast<T>(rng.uniform())});
      serial.push_back(std::make_unique<WalkerSoA<T>>(engine->out_stride()));
      batched.push_back(std::make_unique<WalkerSoA<T>>(engine->out_stride()));
      batched_ptrs.push_back(batched.back().get());
    }
  }

  void run_serial_vgh()
  {
    for (std::size_t w = 0; w < positions.size(); ++w)
      engine->evaluate_vgh(positions[w].x, positions[w].y, positions[w].z, serial[w]->v.data(),
                           serial[w]->g.data(), serial[w]->h.data(), serial[w]->stride);
  }

  void run_serial_vgl()
  {
    for (std::size_t w = 0; w < positions.size(); ++w)
      engine->evaluate_vgl(positions[w].x, positions[w].y, positions[w].z, serial[w]->v.data(),
                           serial[w]->g.data(), serial[w]->l.data(), serial[w]->stride);
  }

  void run_serial_v()
  {
    for (std::size_t w = 0; w < positions.size(); ++w)
      engine->evaluate_v(positions[w].x, positions[w].y, positions[w].z, serial[w]->v.data());
  }

  void expect_vgh_equal() const
  {
    for (std::size_t w = 0; w < positions.size(); ++w)
      for (std::size_t i = 0; i < engine->padded_splines(); ++i) {
        ASSERT_EQ(serial[w]->v[i], batched[w]->v[i]) << "walker " << w;
        ASSERT_EQ(serial[w]->g[i], batched[w]->g[i]) << "walker " << w;
        ASSERT_EQ(serial[w]->h[i], batched[w]->h[i]) << "walker " << w;
      }
  }
};

using BatchFixture = BatchFixtureT<float>;

} // namespace

// ---------------------------------------------------------------------------
// One position per tile pass (P = 1)
// ---------------------------------------------------------------------------

class BatchedEquivalence : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(BatchedEquivalence, VghMatchesSerial)
{
  const auto [n, tile, nw] = GetParam();
  BatchFixture f(n, tile, nw, 42);
  f.run_serial_vgh();
  evaluate_batched(*f.engine, DerivLevel::VGH, f.positions, f.batched_ptrs, 1);
  f.expect_vgh_equal();
}

INSTANTIATE_TEST_SUITE_P(Populations, BatchedEquivalence,
                         ::testing::Values(std::make_tuple(64, 16, 1),
                                           std::make_tuple(64, 16, 4),
                                           std::make_tuple(64, 32, 7),
                                           std::make_tuple(48, 16, 12),
                                           std::make_tuple(96, 96, 3)));

TEST(Batched, VMatchesSerial)
{
  BatchFixture f(64, 16, 5, 7);
  f.run_serial_v();
  evaluate_batched(*f.engine, DerivLevel::V, f.positions, f.batched_ptrs, 1);
  for (int w = 0; w < 5; ++w)
    for (std::size_t i = 0; i < f.engine->padded_splines(); ++i)
      ASSERT_EQ(f.serial[static_cast<std::size_t>(w)]->v[i],
                f.batched[static_cast<std::size_t>(w)]->v[i]);
}

TEST(Batched, VglMatchesSerial)
{
  BatchFixture f(64, 32, 6, 9);
  f.run_serial_vgl();
  evaluate_batched(*f.engine, DerivLevel::VGL, f.positions, f.batched_ptrs, 1);
  for (int w = 0; w < 6; ++w)
    for (std::size_t i = 0; i < f.engine->padded_splines(); ++i) {
      ASSERT_EQ(f.serial[static_cast<std::size_t>(w)]->v[i],
                f.batched[static_cast<std::size_t>(w)]->v[i]);
      ASSERT_EQ(f.serial[static_cast<std::size_t>(w)]->l[i],
                f.batched[static_cast<std::size_t>(w)]->l[i]);
    }
}

TEST(Batched, EmptyPopulationIsNoOp)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 32, 3);
  MultiBspline<float> engine(*coefs, 16);
  std::vector<Vec3<float>> positions;
  std::vector<WalkerSoA<float>*> outs;
  for (const auto d : {DerivLevel::V, DerivLevel::VGL, DerivLevel::VGH}) {
    evaluate_batched(engine, d, positions, outs, 1); // must not crash
    evaluate_batched(engine, d, positions, outs);
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Position blocks
// ---------------------------------------------------------------------------

TEST(Batched, ResolvePosBlock)
{
  EXPECT_EQ(resolve_pos_block(0, 8), 8);   // whole population
  EXPECT_EQ(resolve_pos_block(-3, 5), 5);
  EXPECT_EQ(resolve_pos_block(3, 8), 3);
  EXPECT_EQ(resolve_pos_block(16, 8), 8);  // clamped to population
  EXPECT_EQ(resolve_pos_block(1, 1), 1);
}

/// (N, tile, nw, pos_block): includes a remainder tile (40 = 16+16+8), block
/// sizes that do not divide the population (7 walkers, P=3), P=1 (degenerate
/// single-position blocks), P larger than the population, and P=0 (one block
/// over the whole population).
class BatchedMultiEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(BatchedMultiEquivalence, FusedVghMatchesSerial_Float)
{
  const auto [n, tile, nw, pb] = GetParam();
  BatchFixture f(n, tile, nw, 1234);
  f.run_serial_vgh();
  evaluate_batched(*f.engine, DerivLevel::VGH, f.positions, f.batched_ptrs, pb);
  f.expect_vgh_equal();
}

TEST_P(BatchedMultiEquivalence, FusedVghMatchesSerial_Double)
{
  const auto [n, tile, nw, pb] = GetParam();
  BatchFixtureT<double> f(n, tile, nw, 4321);
  f.run_serial_vgh();
  evaluate_batched(*f.engine, DerivLevel::VGH, f.positions, f.batched_ptrs, pb);
  f.expect_vgh_equal();
}

INSTANTIATE_TEST_SUITE_P(BlocksAndPopulations, BatchedMultiEquivalence,
                         ::testing::Values(std::make_tuple(64, 16, 8, 0),
                                           std::make_tuple(64, 16, 8, 1),
                                           std::make_tuple(64, 32, 7, 3),
                                           std::make_tuple(40, 16, 12, 5),
                                           std::make_tuple(40, 16, 6, 4),
                                           std::make_tuple(96, 96, 3, 8),
                                           std::make_tuple(48, 16, 1, 2)));

TEST(BatchedMulti, FusedVMatchesSerial)
{
  BatchFixture f(40, 16, 7, 17);
  f.run_serial_v();
  evaluate_batched(*f.engine, DerivLevel::V, f.positions, f.batched_ptrs, 3);
  for (std::size_t w = 0; w < f.positions.size(); ++w)
    for (std::size_t i = 0; i < f.engine->padded_splines(); ++i)
      ASSERT_EQ(f.serial[w]->v[i], f.batched[w]->v[i]);
}

TEST(BatchedMulti, FusedVglMatchesSerial)
{
  BatchFixtureT<double> f(40, 16, 9, 19);
  f.run_serial_vgl();
  evaluate_batched(*f.engine, DerivLevel::VGL, f.positions, f.batched_ptrs, 4);
  for (std::size_t w = 0; w < f.positions.size(); ++w)
    for (std::size_t i = 0; i < f.engine->padded_splines(); ++i) {
      ASSERT_EQ(f.serial[w]->v[i], f.batched[w]->v[i]);
      ASSERT_EQ(f.serial[w]->g[i], f.batched[w]->g[i]);
      ASSERT_EQ(f.serial[w]->l[i], f.batched[w]->l[i]);
    }
}

TEST(BatchedMulti, FusedAndPerPairAgreeExactly)
{
  // Same kernels underneath — one position per tile pass and blocks of two
  // must agree bit for bit.
  BatchFixture a(64, 16, 6, 23), b(64, 16, 6, 23);
  evaluate_batched(*a.engine, DerivLevel::VGH, a.positions, a.batched_ptrs, 1);
  evaluate_batched(*b.engine, DerivLevel::VGH, b.positions, b.batched_ptrs, 2);
  for (std::size_t w = 0; w < a.positions.size(); ++w)
    for (std::size_t i = 0; i < a.engine->padded_splines(); ++i) {
      ASSERT_EQ(a.batched[w]->v[i], b.batched[w]->v[i]);
      ASSERT_EQ(a.batched[w]->g[i], b.batched[w]->g[i]);
      ASSERT_EQ(a.batched[w]->h[i], b.batched[w]->h[i]);
    }
}
