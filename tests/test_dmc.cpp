// DMC branching driver (qmc/dmc_driver.h).
//
// Two contracts under test.  (1) The replay oracle: with cfg.dmc_replay set
// the driver pins every branching multiplicity to 1 and runs the unmodified
// crowd-sweep body, so a DMC run of G generations x S steps is bit-for-bit
// a VMC crowd run of G*S steps — same per-walker accept counts, bit-
// identical log dets — across spline layouts, crowd sizes, partition shapes
// and shard counts.  (2) Full DMC (drift + weights +
// birth/death) is a deterministic function of (config, seed): reruns and
// every crowd/shard/partition decomposition reproduce the identical
// population trace, birth/death counters, trial energy bits and per-walker
// fingerprints, and a run killed at a generation boundary resumes from its
// snapshot bit-for-bit — including the cumulative branching provenance.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qmc/dmc_driver.h"
#include "qmc/miniqmc_driver.h"

using namespace mqc;

namespace {

/// RAII env var override (partition/shard-shape tests).
struct ScopedEnv
{
  ScopedEnv(const char* name, const char* value) : name_(name)
  {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_)
      saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv()
  {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

/// Temp checkpoint path that scrubs the whole rotation set on destruction.
struct ScopedCkpt
{
  explicit ScopedCkpt(const std::string& tag)
      : path((std::filesystem::temp_directory_path() / ("mqc_dmc_test_" + tag + ".ckpt"))
                 .string())
  {
    cleanup();
  }
  ~ScopedCkpt() { cleanup(); }
  void cleanup() const
  {
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

MiniQMCConfig base_cfg(SpoLayout spo, bool optimized, int delay)
{
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 12;
  cfg.num_splines = 16; // 32 electrons
  cfg.num_walkers = 4;
  cfg.quadrature_points = 2;
  cfg.spo = spo;
  cfg.optimized_dt_jastrow = optimized;
  cfg.delay_rank = delay;
  return cfg;
}

MiniQMCConfig dmc_cfg(SpoLayout spo, bool optimized, int delay)
{
  MiniQMCConfig cfg = base_cfg(spo, optimized, delay);
  cfg.driver = DriverMode::DMC;
  cfg.dmc_generations = 4;
  cfg.dmc_gen_steps = 1;
  // A tau large enough that the weight exponent actually moves weights
  // through the window on this synthetic system (the local-energy proxy
  // varies by O(0.1) per electron between configurations).
  cfg.dmc_tau = 0.4;
  return cfg;
}

/// Bitwise trajectory comparison: accepts exactly, log-dets as raw bits so a
/// 1-ulp divergence cannot hide behind EXPECT_DOUBLE_EQ.
void expect_same_trajectory(const MiniQMCResult& ref, const MiniQMCResult& got,
                            const std::string& what)
{
  EXPECT_EQ(ref.walker_accepts, got.walker_accepts) << what;
  ASSERT_EQ(ref.walker_log_det.size(), got.walker_log_det.size()) << what;
  for (std::size_t w = 0; w < ref.walker_log_det.size(); ++w) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &ref.walker_log_det[w], sizeof a);
    std::memcpy(&b, &got.walker_log_det[w], sizeof b);
    EXPECT_EQ(a, b) << what << ": walker " << w << " log-det bits differ";
  }
}

/// Full-DMC run comparison: trajectory fingerprints plus the branching
/// provenance (population trace, counters, trial energy as raw bits).
void expect_same_dmc_run(const MiniQMCResult& ref, const MiniQMCResult& got,
                         const std::string& what)
{
  expect_same_trajectory(ref, got, what);
  EXPECT_EQ(ref.num_walkers, got.num_walkers) << what;
  EXPECT_EQ(ref.dmc_population, got.dmc_population) << what;
  EXPECT_EQ(ref.dmc_births, got.dmc_births) << what;
  EXPECT_EQ(ref.dmc_deaths, got.dmc_deaths) << what;
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, &ref.dmc_trial_energy, sizeof a);
  std::memcpy(&b, &got.dmc_trial_energy, sizeof b);
  EXPECT_EQ(a, b) << what << ": trial energy bits differ";
}

} // namespace

// The oracle: fixed-population replay IS a VMC crowd run.  G generations of
// S steps against a crowd run of G*S steps, bit for bit, for every layout,
// crowd size, partition shape and shard count — generation
// chunking and the DMC scaffolding must be trajectory-neutral.
TEST(DmcDriver, ReplayModeMatchesVmcCrowdBitForBit)
{
  struct LayoutCase
  {
    SpoLayout spo;
    bool optimized;
    const char* name;
  };
  const LayoutCase layouts[] = {{SpoLayout::AoS, false, "AoS"},
                                {SpoLayout::SoA, true, "SoA"},
                                {SpoLayout::AoSoA, true, "AoSoA"}};
  const char* partitions[] = {"1x2", "2x1"};

  for (const LayoutCase& lc : layouts) {
    for (const char* part : partitions) {
      ScopedEnv penv("MQC_PARTITION", part);
      ScopedEnv senv("MQC_SHARDS", "2");

      MiniQMCConfig vmc = base_cfg(lc.spo, lc.optimized, 1);
      vmc.driver = DriverMode::Crowd;
      vmc.steps = 6;
      vmc.crowd_size = 3; // does not divide nw = 4
      const MiniQMCResult ref = run_miniqmc(vmc);

      for (int gen_steps : {1, 2, 3}) {
        MiniQMCConfig dmc = base_cfg(lc.spo, lc.optimized, 1);
        dmc.driver = DriverMode::DMC;
        dmc.dmc_replay = true;
        dmc.dmc_generations = 6 / gen_steps;
        dmc.dmc_gen_steps = gen_steps;
        dmc.crowd_size = 3;
        const MiniQMCResult got = run_miniqmc(dmc);
        const std::string what = std::string(lc.name) + " delay=1 part=" + part +
                                 " gen_steps=" + std::to_string(gen_steps);
        expect_same_trajectory(ref, got, what);
        EXPECT_EQ(got.num_walkers, ref.num_walkers) << what;
        EXPECT_EQ(got.dmc_births, 0u) << what;
        EXPECT_EQ(got.dmc_deaths, 0u) << what;
        for (int pop : got.dmc_population)
          EXPECT_EQ(pop, vmc.num_walkers) << what;
      }
    }
  }
}

// Full DMC is a deterministic function of (config, seed): a rerun reproduces
// the identical population trace, counters, trial energy and fingerprints.
TEST(DmcDriver, FullDmcIsSeedDeterministic)
{
  for (SpoLayout spo : {SpoLayout::AoS, SpoLayout::SoA}) {
    MiniQMCConfig cfg = dmc_cfg(spo, spo != SpoLayout::AoS, 1);
    const MiniQMCResult a = run_miniqmc(cfg);
    const MiniQMCResult b = run_miniqmc(cfg);
    expect_same_dmc_run(a, b, spo == SpoLayout::AoS ? "AoS rerun" : "SoA rerun");
    ASSERT_EQ(static_cast<int>(a.dmc_population.size()), cfg.dmc_generations);
  }
}

// The branching dynamics must actually branch on this synthetic system —
// otherwise every "dynamic population" assertion above is vacuous.
TEST(DmcDriver, PopulationActuallyFluctuates)
{
  MiniQMCConfig cfg = dmc_cfg(SpoLayout::SoA, true, 1);
  cfg.dmc_generations = 8;
  cfg.dmc_tau = 0.8; // aggressive: push weights through the window fast
  cfg.dmc_weight_min = 0.05;
  cfg.dmc_weight_max = 8.0;
  const MiniQMCResult r = run_miniqmc(cfg);
  EXPECT_GT(r.dmc_births + r.dmc_deaths, 0u)
      << "no birth/death events: branching is not exercised";
  // The population ceiling must hold even under aggressive branching.
  const int target = cfg.num_walkers;
  for (int pop : r.dmc_population) {
    EXPECT_GE(pop, 1);
    EXPECT_LE(pop, 4 * target);
  }
  // Fingerprints track the FINAL population, not the initial one.
  EXPECT_EQ(r.walker_accepts.size(), static_cast<std::size_t>(r.dmc_population.back()));
}

// The branch step runs serially in walker-id order on the walkers' own
// streams, so the whole run — trace, counters, fingerprints — must be
// invariant under every crowd/shard/partition decomposition.
TEST(DmcDriver, FullDmcIsDecompositionNeutral)
{
  MiniQMCConfig cfg = dmc_cfg(SpoLayout::AoSoA, true, 1);
  MiniQMCResult ref;
  {
    ScopedEnv senv("MQC_SHARDS", "1");
    ScopedEnv penv("MQC_PARTITION", "1x2");
    ref = run_miniqmc(cfg);
  }
  {
    ScopedEnv senv("MQC_SHARDS", "2");
    ScopedEnv penv("MQC_PARTITION", "2x1");
    MiniQMCConfig c2 = cfg;
    c2.crowd_size = 2;
    const MiniQMCResult got = run_miniqmc(c2);
    EXPECT_EQ(got.dmc_shards_used, 2);
    expect_same_dmc_run(ref, got, "2 shards / 2x1 / crowd_size 2");
  }
  {
    ScopedEnv senv("MQC_SHARDS", "3");
    ScopedEnv penv("MQC_PARTITION", "1x1");
    MiniQMCConfig c3 = cfg;
    c3.crowd_size = 1;
    expect_same_dmc_run(ref, run_miniqmc(c3), "3 shards / serial / crowd_size 1");
  }
}

// Mixed precision under branching: a Mixed full-DMC run is still a
// deterministic function of (config, seed) — population trace, counters,
// trial energy bits, fingerprints — and still invariant under every
// crowd/shard/partition decomposition, because the mixed engines are
// deterministic per evaluation and everything downstream is unchanged.
TEST(DmcDriver, MixedFullDmcIsSeedDeterministicAndSurfaced)
{
  for (SpoLayout spo : {SpoLayout::SoA, SpoLayout::AoSoA}) {
    MiniQMCConfig cfg = dmc_cfg(spo, true, 1);
    cfg.precision_path = PrecisionPath::Mixed;
    const MiniQMCResult a = run_miniqmc(cfg);
    const MiniQMCResult b = run_miniqmc(cfg);
    EXPECT_EQ(a.precision_path, PrecisionPath::Mixed);
    expect_same_dmc_run(a, b, spo == SpoLayout::SoA ? "mixed SoA rerun" : "mixed AoSoA rerun");
    ASSERT_EQ(static_cast<int>(a.dmc_population.size()), cfg.dmc_generations);
  }
  // AoS has no mixed variant: the branching driver surfaces the resolution.
  MiniQMCConfig acfg = dmc_cfg(SpoLayout::AoS, false, 1);
  acfg.precision_path = PrecisionPath::Mixed;
  EXPECT_EQ(run_miniqmc(acfg).precision_path, PrecisionPath::Native);
}

TEST(DmcDriver, MixedFullDmcIsDecompositionNeutral)
{
  MiniQMCConfig cfg = dmc_cfg(SpoLayout::AoSoA, true, 1);
  cfg.precision_path = PrecisionPath::Mixed;
  MiniQMCResult ref;
  {
    ScopedEnv senv("MQC_SHARDS", "1");
    ScopedEnv penv("MQC_PARTITION", "1x2");
    ref = run_miniqmc(cfg);
  }
  EXPECT_EQ(ref.precision_path, PrecisionPath::Mixed);
  {
    ScopedEnv senv("MQC_SHARDS", "2");
    ScopedEnv penv("MQC_PARTITION", "2x1");
    MiniQMCConfig c2 = cfg;
    c2.crowd_size = 2;
    const MiniQMCResult got = run_miniqmc(c2);
    EXPECT_EQ(got.dmc_shards_used, 2);
    expect_same_dmc_run(ref, got, "mixed: 2 shards / 2x1 / crowd_size 2");
  }
  {
    ScopedEnv senv("MQC_SHARDS", "3");
    ScopedEnv penv("MQC_PARTITION", "1x1");
    MiniQMCConfig c3 = cfg;
    c3.crowd_size = 1;
    expect_same_dmc_run(ref, run_miniqmc(c3), "mixed: 3 shards / serial / crowd_size 1");
  }
}

// The drift is pinned: with a unit weight window every multiplicity is
// floor(1 + u) = 1, so nothing branches, and one generation of one step
// differs from replay only by the drifted proposal centre.  Dropping the
// drift would make the two runs bit-identical.
TEST(DmcDriver, DriftMovesTheProposalCentre)
{
  struct LayoutCase
  {
    SpoLayout spo;
    bool optimized;
    const char* name;
  };
  // AoS and SoA read the drift gradient from different output layouts.
  const LayoutCase cases[] = {{SpoLayout::AoS, false, "AoS"}, {SpoLayout::SoA, true, "SoA"}};
  for (const auto& lc : cases) {
    MiniQMCConfig full = dmc_cfg(lc.spo, lc.optimized, 1);
    full.dmc_generations = 1;
    full.dmc_gen_steps = 1;
    full.dmc_weight_min = 1.0;
    full.dmc_weight_max = 1.0;
    MiniQMCConfig replay = full;
    replay.dmc_replay = true;
    const MiniQMCResult drifted = run_miniqmc(full);
    const MiniQMCResult plain = run_miniqmc(replay);
    EXPECT_EQ(drifted.dmc_births, 0u) << lc.name;
    EXPECT_EQ(drifted.dmc_deaths, 0u) << lc.name;
    EXPECT_EQ(drifted.moves_attempted, plain.moves_attempted) << lc.name;
    ASSERT_EQ(drifted.walker_log_det.size(), plain.walker_log_det.size()) << lc.name;
    EXPECT_NE(drifted.walker_log_det, plain.walker_log_det)
        << lc.name << ": full DMC proposed exactly like replay — the drift never engaged";
  }
}

// Crash consistency for dynamic populations: snapshot at a generation
// boundary mid-run, resume, and land bit-for-bit on the uninterrupted run —
// population trace tail, cumulative birth/death counters, trial energy and
// all per-walker fingerprints.
TEST(DmcDriver, CheckpointResumeIsBitForBit)
{
  MiniQMCConfig cfg = dmc_cfg(SpoLayout::SoA, true, 1);
  cfg.dmc_generations = 6;
  const std::string tag = "resume_d1";
  ScopedCkpt ck(tag);

  const MiniQMCResult ref = run_miniqmc(cfg);

  MiniQMCConfig part = cfg;
  part.dmc_generations = 3;
  part.checkpoint_path = ck.path;
  part.checkpoint_interval = 1; // gen_steps = 1: every generation boundary
  const MiniQMCResult first = run_miniqmc(part);
  EXPECT_GE(first.checkpoints_written, 1) << tag;

  MiniQMCConfig rest = cfg;
  rest.checkpoint_path = ck.path;
  rest.resume = true;
  const MiniQMCResult got = run_miniqmc(rest);
  EXPECT_EQ(got.resumed_from_step, 3) << tag << ": " << got.resume_error;
  EXPECT_FALSE(got.resume_fallback_used) << tag;

  expect_same_trajectory(ref, got, tag);
  EXPECT_EQ(ref.num_walkers, got.num_walkers) << tag;
  EXPECT_EQ(ref.dmc_births, got.dmc_births) << tag;
  EXPECT_EQ(ref.dmc_deaths, got.dmc_deaths) << tag;
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, &ref.dmc_trial_energy, sizeof a);
  std::memcpy(&b, &got.dmc_trial_energy, sizeof b);
  EXPECT_EQ(a, b) << tag << ": trial energy bits differ";
  // The resumed trace covers generations 3..6; it must equal the tail of
  // the uninterrupted trace.
  ASSERT_EQ(got.dmc_population.size(), 3u) << tag;
  ASSERT_EQ(ref.dmc_population.size(), 6u) << tag;
  for (std::size_t g = 0; g < 3; ++g)
    EXPECT_EQ(got.dmc_population[g], ref.dmc_population[g + 3]) << tag << " gen " << g + 3;
}

// A snapshot carries no decomposition: a run killed under one shard and one
// crowd resumes under two shards, crowds of one and a 2x1 partition, and the
// resumed population is re-blocked across the new shards before its first
// sweep.  It must still land bit-for-bit on the uninterrupted run.
TEST(DmcDriver, ResumeUnderADifferentDecompositionIsBitForBit)
{
  MiniQMCConfig cfg = dmc_cfg(SpoLayout::SoA, true, 1);
  cfg.dmc_generations = 6;
  ScopedCkpt ck("resume_redecomposed");

  const MiniQMCResult ref = run_miniqmc(cfg);

  {
    ScopedEnv senv("MQC_SHARDS", "1");
    MiniQMCConfig part = cfg;
    part.crowd_size = 0;
    part.dmc_generations = 3;
    part.checkpoint_path = ck.path;
    part.checkpoint_interval = 1;
    ASSERT_GE(run_miniqmc(part).checkpoints_written, 1);
  }

  ScopedEnv senv("MQC_SHARDS", "2");
  ScopedEnv penv("MQC_PARTITION", "2x1");
  MiniQMCConfig rest = cfg;
  rest.crowd_size = 1;
  rest.checkpoint_path = ck.path;
  rest.resume = true;
  const MiniQMCResult got = run_miniqmc(rest);
  EXPECT_EQ(got.resumed_from_step, 3) << got.resume_error;
  EXPECT_EQ(got.dmc_shards_used, 2);

  expect_same_trajectory(ref, got, "resumed under 2 shards / 2x1 / crowd_size 1");
  EXPECT_EQ(ref.num_walkers, got.num_walkers);
  EXPECT_EQ(ref.dmc_births, got.dmc_births);
  EXPECT_EQ(ref.dmc_deaths, got.dmc_deaths);
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, &ref.dmc_trial_energy, sizeof a);
  std::memcpy(&b, &got.dmc_trial_energy, sizeof b);
  EXPECT_EQ(a, b) << "trial energy bits differ";
  ASSERT_EQ(got.dmc_population.size(), 3u);
  ASSERT_EQ(ref.dmc_population.size(), 6u);
  for (std::size_t g = 0; g < 3; ++g)
    EXPECT_EQ(got.dmc_population[g], ref.dmc_population[g + 3]) << "gen " << g + 3;
}

// The DMC branching knobs join the config hash: a VMC snapshot must never
// resume into a DMC run (or vice versa), and the rejection surfaces the
// config-hash detail instead of silently restarting on the wrong provenance.
TEST(DmcDriver, VmcSnapshotCannotResumeIntoDmc)
{
  ScopedCkpt ck("vmc_cross");
  MiniQMCConfig vmc = base_cfg(SpoLayout::SoA, true, 1);
  vmc.driver = DriverMode::Crowd;
  vmc.steps = 4;
  vmc.checkpoint_path = ck.path;
  vmc.checkpoint_interval = 2;
  const MiniQMCResult wrote = run_miniqmc(vmc);
  ASSERT_GE(wrote.checkpoints_written, 1);

  MiniQMCConfig dmc = dmc_cfg(SpoLayout::SoA, true, 1);
  dmc.checkpoint_path = ck.path;
  dmc.resume = true;
  const MiniQMCResult got = run_miniqmc(dmc);
  EXPECT_EQ(got.resumed_from_step, -1) << "VMC snapshot must not resume a DMC run";
  EXPECT_FALSE(got.resume_error.empty());
  EXPECT_NE(got.resume_error.find("config"), std::string::npos) << got.resume_error;
}

// Replay mode and full DMC also hash differently: branching knobs ARE the
// trajectory, so a replay snapshot must not seed a branching run.
TEST(DmcDriver, ReplaySnapshotCannotResumeFullDmc)
{
  ScopedCkpt ck("replay_cross");
  MiniQMCConfig rep = dmc_cfg(SpoLayout::SoA, true, 1);
  rep.dmc_replay = true;
  rep.checkpoint_path = ck.path;
  rep.checkpoint_interval = 1;
  const MiniQMCResult wrote = run_miniqmc(rep);
  ASSERT_GE(wrote.checkpoints_written, 1);

  MiniQMCConfig full = dmc_cfg(SpoLayout::SoA, true, 1);
  full.checkpoint_path = ck.path;
  full.resume = true;
  const MiniQMCResult got = run_miniqmc(full);
  EXPECT_EQ(got.resumed_from_step, -1);
  EXPECT_FALSE(got.resume_error.empty());
}
