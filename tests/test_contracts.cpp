// Death tests for the MQC_CONTRACTS debug-contract layer (common/contracts.h
// and the seam checks in core/orbital_set.h / qmc/crowd_sweep.h).  Each
// abort path is exercised once: the diagnostic must fire, name the violated
// contract, and kill the process.  In a build without MQC_CONTRACTS the
// whole layer compiles to nothing, so every test skips — the suite then only
// documents what the Debug+contracts CI configuration enforces.
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "qmc/crowd_sweep.h"
#include "qmc/walker.h"

using namespace mqc;

#ifndef MQC_CONTRACTS

TEST(Contracts, LayerDisabledInThisBuild)
{
  EXPECT_FALSE(contracts_enabled);
  GTEST_SKIP() << "configure with -DMQC_CONTRACTS=ON to exercise the abort paths";
}

#else

namespace {

// OpenMP threads exist in this process (team_for tests, facade sweeps), so
// the fork-based "fast" death-test style is unsafe; re-execute instead.
struct ThreadsafeDeathStyle
{
  ThreadsafeDeathStyle() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
} const threadsafe_style;

/// Small AoSoA engine + one-walker request, the minimum to reach the facade's
/// request validation.  N = 32 floats -> padded = 32, tiles {16, 16}.
struct ContractFixture
{
  static constexpr int kSplines = 32;
  std::shared_ptr<CoefStorage<float>> coefs;
  MultiBspline<float> engine;
  std::size_t stride;
  std::vector<Vec3<float>> positions;
  std::vector<std::unique_ptr<WalkerSoA<float>>> walkers;
  std::vector<float*> v, g, lh;

  explicit ContractFixture(int count = 1)
      : coefs(make_random_storage<float>(Grid3D<float>::cube(8, 1.0f), kSplines, 99)),
        engine(*coefs, 16), stride(engine.padded_splines())
  {
    Xoshiro256 rng(17);
    for (int p = 0; p < count; ++p) {
      positions.push_back(Vec3<float>{static_cast<float>(rng.uniform()),
                                      static_cast<float>(rng.uniform()),
                                      static_cast<float>(rng.uniform())});
      walkers.push_back(std::make_unique<WalkerSoA<float>>(stride));
      v.push_back(walkers.back()->v.data());
      g.push_back(walkers.back()->g.data());
      lh.push_back(walkers.back()->l.data());
    }
  }

  [[nodiscard]] OrbitalEvalRequest<float> request(DerivLevel deriv)
  {
    OrbitalEvalRequest<float> rq;
    rq.deriv = deriv;
    rq.positions = positions.data();
    rq.count = static_cast<int>(positions.size());
    rq.v = v.data();
    rq.g = g.data();
    rq.lh = lh.data();
    rq.stride = stride;
    return rq;
  }
};

} // namespace

TEST(ContractsDeathTest, FailureAbortsWithDiagnostic)
{
  EXPECT_TRUE(contracts_enabled);
  EXPECT_DEATH(mqc_contract(false, "probe value %d", 41), "mqc contract violation");
  EXPECT_DEATH(mqc_contract(false, "probe value %d", 41), "probe value 41");
}

TEST(ContractsDeathTest, OrbitalResourceReentryAborts)
{
  ContractFixture fx;
  OrbitalResource<float> res;
  auto rq = fx.request(DerivLevel::V);
  OrbitalSet<float> set(fx.engine);
  set.evaluate(rq, res); // sane call: the guard releases the resource
  EXPECT_FALSE(res.contract_live);
  res.contract_live = true; // simulate an enclosing evaluation still running
  EXPECT_DEATH(set.evaluate(rq, res), "OrbitalResource re-entered");
}

TEST(ContractsDeathTest, NullOutputSlotAborts)
{
  ContractFixture fx;
  OrbitalResource<float> res;
  auto rq = fx.request(DerivLevel::V);
  fx.v[0] = nullptr;
  EXPECT_DEATH(OrbitalSet<float>(fx.engine).evaluate(rq, res), "value slot v\\[0\\] is null");
}

TEST(ContractsDeathTest, UnderPaddedOrMisalignedStrideAborts)
{
  ContractFixture fx;
  OrbitalResource<float> res;
  auto rq = fx.request(DerivLevel::VGL);
  rq.stride = fx.stride - 1; // below padded_splines and not lane-aligned
  EXPECT_DEATH(OrbitalSet<float>(fx.engine).evaluate(rq, res), "violates the engine contract");
}

TEST(ContractsDeathTest, OverlappingValueSlotsAbort)
{
  ContractFixture fx(2);
  OrbitalResource<float> res;
  auto rq = fx.request(DerivLevel::V);
  fx.v[1] = fx.v[0] + 1; // second walker writes into the first one's slot
  EXPECT_DEATH(OrbitalSet<float>(fx.engine).evaluate(rq, res), "overlap");
}

TEST(ContractsDeathTest, DisjointSlotsPassTheOverlapCheck)
{
  ContractFixture fx(2);
  OrbitalResource<float> res;
  auto rq = fx.request(DerivLevel::VGL);
  OrbitalSet<float>(fx.engine).evaluate(rq, res); // must not abort
  SUCCEED();
}

// The population core's crowds and scratch describe one walker vector.  A
// sweep after the vector changed without reblock() aborts; after reblock()
// the re-split scratch passes.
TEST(ContractsDeathTest, PopulationSweepsOnlyAfterReblock)
{
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 8;
  cfg.num_splines = 4;
  cfg.num_walkers = 2;
  cfg.quadrature_points = 1;
  cfg.crowd_size = 1;
  detail::PopulationCore pop(cfg, 1);
  ASSERT_EQ(pop.crowds.size(), 2u);
  pop.sweep(0, 1);

  std::swap(pop.walkers[0], pop.walkers[1]);
  EXPECT_DEATH(pop.sweep(1, 2), "stale scratch");
  pop.reblock();
  pop.sweep(1, 2);

  pop.walkers.pop_back();
  EXPECT_DEATH(pop.sweep(2, 3), "without reblock");
  pop.reblock();
  ASSERT_EQ(pop.crowds.size(), 1u);
  pop.sweep(2, 3);
}

#endif // MQC_CONTRACTS
