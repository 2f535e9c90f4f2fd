// WalkerPopulation service layer (qmc/walker_population.h) and the async
// JobQueue multiplexer (qmc/job_queue.h).
//
// The contracts under test:
//   * a resident population reproduces run_miniqmc's per-walker
//     `walker_accepts` / `walker_log_det` fingerprints bit-for-bit, for
//     EVERY shard count and partition shape (sharding is placement, never
//     trajectory state);
//   * incremental advancement (run_steps / run_to_step in pieces) lands on
//     the same fingerprints as one shot;
//   * coefficient replicas are exact element-wise copies of the master;
//   * a job served through the queue matches a standalone run over the same
//     seed/walkers/steps regardless of packing, submission order, or which
//     shard picked it up; and
//   * mismatched jobs (wrong precision, wrong system) are REJECTED with a
//     surfaced error, never silently run on the resident tables.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/threading.h"
#include "core/coef_storage.h"
#include "core/synthetic_orbitals.h"
#include "core/table_memory.h"
#include "determinant/det_update.h"
#include "qmc/crowd_sweep.h"
#include "qmc/job_queue.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/walker_population.h"

using namespace mqc;

namespace {

/// RAII env var override (shard/partition knob tests).
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

MiniQMCConfig make_cfg(int walkers = 6, int steps = 6)
{
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 16;
  cfg.spo = SpoLayout::SoA;
  cfg.optimized_dt_jastrow = true;
  cfg.num_walkers = walkers;
  cfg.steps = steps;
  return cfg;
}

/// Bitwise trajectory comparison (same discipline as test_checkpoint.cpp).
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

MiniQMCResult run_population(const MiniQMCConfig& cfg, int shards)
{
  PopulationConfig pcfg;
  pcfg.qmc = cfg;
  pcfg.num_shards = shards;
  WalkerPopulation pop(pcfg);
  pop.run_to_step(cfg.steps);
  return pop.result();
}

} // namespace

// ---------------------------------------------------------------------------
// Resident population: bit-for-bit equivalence with run_miniqmc
// ---------------------------------------------------------------------------

TEST(WalkerPopulationSuite, MatchesRunMiniqmcBitForBit)
{
  const MiniQMCConfig cfg = make_cfg();
  const MiniQMCResult ref = run_miniqmc(cfg);
  const MiniQMCResult got = run_population(cfg, 2);
  EXPECT_EQ(got.num_walkers, ref.num_walkers);
  expect_same_trajectory(ref, got, "population vs run_miniqmc");
}

TEST(WalkerPopulationSuite, SecondsIncludeTheWalkerBuild)
{
  // result().seconds spans the walker build and resume, as run_miniqmc's
  // always has (wall time - seconds leaves the system build and teardown), and
  // then accumulates every sweep.
  PopulationConfig pcfg;
  pcfg.qmc = make_cfg(4, 2);
  pcfg.num_shards = 1;
  WalkerPopulation pop(pcfg);
  const double built = pop.result().seconds;
  EXPECT_GT(built, 0.0);
  pop.run_to_step(2);
  EXPECT_GT(pop.result().seconds, built);
}

TEST(WalkerPopulationSuite, DelayRankOfTwoOrMoreIsRefusedBeforeTheRun)
{
  // Sherman-Morrison is the only determinant engine.  delay_rank >= 2 named
  // the removed delayed engine: every driver refuses it with an exception
  // that names the value, thrown on the caller's thread before any team
  // region (a throw inside an OpenMP region would terminate the process).
  auto expect_refused = [](const auto& run, const std::string& what) {
    try {
      run();
      ADD_FAILURE() << what << ": delay_rank = 2 was not refused";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("delay_rank = 2"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  MiniQMCConfig cfg = make_cfg(4, 2);
  cfg.delay_rank = 2;
  for (const DriverMode mode : {DriverMode::PerWalker, DriverMode::Crowd, DriverMode::DMC}) {
    MiniQMCConfig c = cfg;
    c.driver = mode;
    expect_refused([&] { (void)run_miniqmc(c); },
                   "run_miniqmc driver " + std::to_string(static_cast<int>(mode)));
  }
  PopulationConfig pcfg;
  pcfg.qmc = cfg;
  expect_refused([&] { WalkerPopulation pop(pcfg); }, "WalkerPopulation");

  EXPECT_THROW((void)DetUpdater(2), std::invalid_argument);
  EXPECT_THROW((void)DetUpdater(8), std::invalid_argument);
  EXPECT_NO_THROW((void)DetUpdater(0));
  EXPECT_NO_THROW((void)DetUpdater(1));
}

TEST(WalkerPopulationSuite, ShardCountIsTrajectoryNeutral)
{
  const MiniQMCConfig cfg = make_cfg();
  const MiniQMCResult ref = run_population(cfg, 1);
  for (const int shards : {2, 3, 6}) {
    const MiniQMCResult got = run_population(cfg, shards);
    expect_same_trajectory(ref, got, "shards=" + std::to_string(shards));
  }
  // More shards than walkers: clamped, never an empty shard.
  PopulationConfig pcfg;
  pcfg.qmc = cfg;
  pcfg.num_shards = 99;
  WalkerPopulation pop(pcfg);
  EXPECT_LE(pop.num_shards(), pop.num_walkers());
  pop.run_to_step(cfg.steps);
  MiniQMCResult got = pop.result();
  expect_same_trajectory(ref, got, "shards=99 (clamped)");
}

TEST(WalkerPopulationSuite, PartitionShapeAndCrowdSizeAreNeutral)
{
  MiniQMCConfig cfg = make_cfg();
  const MiniQMCResult ref = run_miniqmc(cfg);
  for (const char* shape : {"1x2", "2x1"}) {
    ScopedEnv env("MQC_PARTITION", shape);
    for (const int crowd : {0, 2}) {
      MiniQMCConfig c = cfg;
      c.crowd_size = crowd;
      const MiniQMCResult got = run_population(c, 2);
      expect_same_trajectory(ref, got,
                             std::string("partition=") + shape + " crowd=" +
                                 std::to_string(crowd));
    }
  }
}

TEST(WalkerPopulationSuite, IncrementalAdvancementMatchesOneShot)
{
  const MiniQMCConfig cfg = make_cfg();
  const MiniQMCResult ref = run_miniqmc(cfg);

  PopulationConfig pcfg;
  pcfg.qmc = cfg;
  pcfg.num_shards = 2;
  WalkerPopulation pop(pcfg);
  EXPECT_EQ(pop.current_step(), 0);
  pop.run_steps(2);
  EXPECT_EQ(pop.current_step(), 2);
  pop.run_to_step(5);
  pop.run_to_step(3); // backwards target: no-op, never a rewind
  EXPECT_EQ(pop.current_step(), 5);
  pop.run_steps(1);
  EXPECT_EQ(pop.current_step(), cfg.steps);
  expect_same_trajectory(ref, pop.result(), "incremental");
  // result() is idempotent between (and after) runs.
  expect_same_trajectory(ref, pop.result(), "incremental (second call)");
}

// ---------------------------------------------------------------------------
// Shard resolution and coefficient replication
// ---------------------------------------------------------------------------

TEST(WalkerPopulationSuite, ResolveShardCountFollowsTopologyAndEnv)
{
  MachineTopology topo;
  topo.sockets = 2;
  topo.cores_per_socket = 8;
  topo.smt = 1;
  EXPECT_EQ(resolve_shard_count_for(0, topo), 2); // auto: one per socket
  EXPECT_EQ(resolve_shard_count_for(5, topo), 5); // explicit wins
  {
    ScopedEnv env("MQC_SHARDS", "3");
    EXPECT_EQ(resolve_shard_count(0), 3);
    EXPECT_EQ(resolve_shard_count(7), 7); // explicit still beats the env
  }
  {
    ScopedEnv env("MQC_SHARDS", "banana"); // malformed: warn + topology
    EXPECT_GE(resolve_shard_count(0), 1);
  }
}

// Shards sit on the sockets in contiguous blocks (block_range), non-empty
// blocks first, so the sockets in use are always a prefix.
TEST(WalkerPopulationSuite, ShardsAreBlockedOverTheSockets)
{
  using V = std::vector<int>;
  EXPECT_EQ(detail::shard_sockets(3, 1), (V{0, 0, 0}));
  EXPECT_EQ(detail::shard_sockets(3, 2), (V{0, 0, 1}));
  EXPECT_EQ(detail::shard_sockets(4, 2), (V{0, 0, 1, 1}));
  EXPECT_EQ(detail::shard_sockets(2, 2), (V{0, 1}));
  EXPECT_EQ(detail::shard_sockets(2, 4), (V{0, 1}));
}

TEST(WalkerPopulationSuite, ReplicasAreExactCopiesOfTheMaster)
{
  // Two masters: one table (what a SoA engine reads), and the three tiles an
  // AoSoA engine reads at Nb = 16 (16 + 16 + a remainder of 8 splines).
  const auto grid = Grid3D<float>::cube(4);
  auto master = std::make_shared<CoefStorage<float>>(grid, 8);
  master->fill_random(1234);
  const CoefTables<float> one_table{master};
  const CoefTables<float> tiles = make_random_tiles<float>(grid, 40, 16, 1234);
  ASSERT_EQ(tiles.size(), 3u);

  for (const CoefTables<float>* engine_tables : {&one_table, &tiles}) {
    CoefReplicaSet<float> set(*engine_tables, {0, 1, 2}); // one shard per socket
    EXPECT_EQ(set.num_shards(), 3);
    EXPECT_EQ(set.replicate(0), *engine_tables); // shard 0 IS the master
    EXPECT_EQ(set.replica_bytes(1), 0u);         // not yet materialized

    const CoefTables<float>& rep = set.replicate(1);
    EXPECT_EQ(&set.replicate(1), &rep); // idempotent
    ASSERT_EQ(rep.size(), engine_tables->size());
    std::size_t engine_bytes = 0;
    for (std::size_t t = 0; t < rep.size(); ++t) {
      const CoefStorage<float>& a = *(*engine_tables)[t];
      ASSERT_NE(rep[t].get(), &a);
      ASSERT_EQ(rep[t]->size_bytes(), a.size_bytes());
      ASSERT_EQ(0, std::memcmp(a.row(0, 0, 0), rep[t]->row(0, 0, 0), a.size_bytes()))
          << "replica table " << t << " differs";
      engine_bytes += a.size_bytes();
    }
    // A shard pins exactly one engine's tables, padding included.
    EXPECT_EQ(set.replica_bytes(1), engine_bytes);
    EXPECT_EQ(set.replica_bytes(2), 0u);
    EXPECT_EQ(set.total_replica_bytes(), 2 * engine_bytes);
  }
}

// Shards on one socket read one set: under {0, 0, 1} shards 0 and 1 read the
// master itself, shard 2 a byte-identical copy, and the set pins each
// distinct table set once.
TEST(WalkerPopulationSuite, ShardsOfOneSocketShareItsReplica)
{
  const CoefTables<float> tiles =
      make_random_tiles<float>(Grid3D<float>::cube(4), 40, 16, 1234);
  std::size_t engine_bytes = 0;
  for (const auto& t : tiles)
    engine_bytes += t->size_bytes();

  CoefReplicaSet<float> set(tiles, {0, 0, 1});
  EXPECT_EQ(set.num_shards(), 3);
  EXPECT_EQ(set.num_sockets(), 2);
  EXPECT_FALSE(set.copies(0));
  EXPECT_FALSE(set.copies(1));
  EXPECT_TRUE(set.copies(2));
  EXPECT_EQ(set.replicate(0), tiles); // the master's pointers
  EXPECT_EQ(set.replicate(1), tiles);
  EXPECT_EQ(set.total_replica_bytes(), engine_bytes); // socket 1 not yet copied

  const CoefTables<float>& copy = set.replicate(2);
  ASSERT_EQ(copy.size(), tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    ASSERT_NE(copy[t].get(), tiles[t].get());
    ASSERT_EQ(copy[t]->size_bytes(), tiles[t]->size_bytes());
    EXPECT_EQ(0, std::memcmp(tiles[t]->row(0, 0, 0), copy[t]->row(0, 0, 0),
                             tiles[t]->size_bytes()))
        << "tile " << t;
  }
  EXPECT_EQ(set.replicate(1), tiles); // the copy did not move shard 1
  EXPECT_EQ(set.replica_bytes(0), engine_bytes);
  EXPECT_EQ(set.replica_bytes(1), engine_bytes);
  EXPECT_EQ(set.total_replica_bytes(), 2 * engine_bytes);
}

// A system holds exactly the tables its engine reads.  At N = 40 one 64-wide
// tile covers every orbital, so that tile IS the generated table; at Nb = 16
// the system holds the three tiles and never an untiled table.
TEST(WalkerPopulationSuite, SystemsHoldOnlyTheirEngineTables)
{
  MiniQMCConfig cfg = make_cfg(3, 1);
  cfg.grid_size = 8;
  cfg.num_splines = 40;
  cfg.spo = SpoLayout::AoSoA;
  for (const int tile : {64, 16}) {
    cfg.tile_size = tile;
    const std::size_t before = live_table_bytes();
    const detail::MiniQMCSystem sys(cfg);
    const MultiBspline<float>& engine = *sys.spo_aosoa;
    EXPECT_EQ(live_table_bytes() - before, engine.coef_bytes()) << "Nb = " << tile;
    ASSERT_EQ(sys.tables.size(), static_cast<std::size_t>(engine.num_tiles()));
    for (int t = 0; t < engine.num_tiles(); ++t)
      EXPECT_EQ(sys.tables[static_cast<std::size_t>(t)].get(), &engine.tile(t).coefs());
    if (tile == 64) {
      ASSERT_EQ(engine.num_tiles(), 1);
      const auto generated = make_random_storage<float>(sys.tables[0]->grid(), 40, cfg.seed);
      ASSERT_EQ(sys.tables[0]->size_bytes(), generated->size_bytes());
      EXPECT_EQ(0, std::memcmp(sys.tables[0]->row(0, 0, 0), generated->row(0, 0, 0),
                               generated->size_bytes()));
    } else {
      EXPECT_EQ(engine.num_tiles(), 3);
    }
  }
}

// Each socket in use holds one first-touch copy of one engine's tables — the
// tiles, byte for byte — that its shards share, and the shards together hold
// nothing else.  The expected socket count comes from the topology, so a
// forced MQC_TOPOLOGY of 1x4x1 (three shards share one set) and of 2x2x1
// (shards {0, 1} share the master, shard 2 reads a copy) both pin it.
TEST(WalkerPopulationSuite, ShardsReplicateTheEngineTables)
{
  MiniQMCConfig cfg = make_cfg(3, 1);
  cfg.grid_size = 8;
  cfg.num_splines = 40;
  cfg.spo = SpoLayout::AoSoA;
  cfg.tile_size = 16;
  const std::vector<int> socket = detail::shard_sockets(3, machine_topology().sockets);
  const int sockets = socket.back() + 1;
  const std::size_t before = live_table_bytes();
  const detail::ShardSystems shards(cfg, 3);
  ASSERT_EQ(shards.size(), 3);
  const CoefTables<float>& master = shards.master().tables;
  const std::size_t engine_bytes = shards.master().spo_aosoa->coef_bytes();
  EXPECT_EQ(live_table_bytes() - before, static_cast<std::size_t>(sockets) * engine_bytes);
  EXPECT_EQ(shards.replicas.total_replica_bytes(),
            static_cast<std::size_t>(sockets) * engine_bytes);
  for (int s = 0; s < shards.size(); ++s) {
    const detail::MiniQMCSystem& sys = shards[s];
    const int k = socket[static_cast<std::size_t>(s)];
    EXPECT_EQ(shards.replicas.socket_of(s), k) << "shard " << s;
    EXPECT_EQ(shards.replicas.replica_bytes(k), engine_bytes) << "shard " << s;
    ASSERT_EQ(sys.tables.size(), master.size());
    for (std::size_t t = 0; t < master.size(); ++t) {
      EXPECT_EQ(sys.tables[t].get(), &sys.spo_aosoa->tile(static_cast<int>(t)).coefs());
      // Shards on one socket read the same tables; every other socket a copy.
      if (s > 0) {
        const bool same_socket = k == socket[static_cast<std::size_t>(s - 1)];
        EXPECT_EQ(sys.tables[t].get() == shards[s - 1].tables[t].get(), same_socket)
            << "shard " << s;
      }
      if (k > 0) {
        EXPECT_NE(sys.tables[t].get(), master[t].get()) << "shard " << s;
      }
      ASSERT_EQ(sys.tables[t]->size_bytes(), master[t]->size_bytes());
      EXPECT_EQ(0, std::memcmp(sys.tables[t]->row(0, 0, 0), master[t]->row(0, 0, 0),
                               master[t]->size_bytes()))
          << "shard " << s << " tile " << t;
    }
  }
}

// The population reports the coefficient-table bytes it keeps resident: one
// engine's tables per socket in use, whatever the shard count, and exactly
// what it added to the table allocator's live bytes.
TEST(WalkerPopulationSuite, ReportsItsResidentTableBytes)
{
  PopulationConfig pcfg;
  pcfg.qmc = make_cfg(3, 1);
  pcfg.qmc.grid_size = 8;
  pcfg.num_shards = 3;
  const int sockets = std::min(3, machine_topology().sockets);
  const std::size_t before = live_table_bytes();
  const WalkerPopulation pop(pcfg);
  std::size_t engine_bytes = 0;
  for (const auto& t : pop.shard_system_internal(0).tables)
    engine_bytes += t->size_bytes();
  EXPECT_EQ(pop.coef_table_bytes(), static_cast<std::size_t>(sockets) * engine_bytes);
  EXPECT_EQ(live_table_bytes() - before, pop.coef_table_bytes());
}

// ---------------------------------------------------------------------------
// JobQueue: async multiplexing onto the resident engines
// ---------------------------------------------------------------------------

TEST(JobQueueSuite, JobMatchesStandaloneRunBitForBit)
{
  // The job's seed must match the population's here: config seed drives BOTH
  // the coefficient table and the walker rng streams, and a job runs on the
  // RESIDENT table (that is the point of the service).  With matching seeds
  // the job is exactly a standalone run over the same physics.
  MiniQMCConfig base = make_cfg(4, 0);
  base.seed = 777;

  MiniQMCConfig standalone = base;
  standalone.num_walkers = 3;
  standalone.steps = 5;
  const MiniQMCResult ref = run_miniqmc(standalone);

  PopulationConfig pcfg;
  pcfg.qmc = base;
  pcfg.num_shards = 2;
  WalkerPopulation pop(pcfg);
  JobQueue queue(pop);
  EXPECT_EQ(queue.num_workers(), pop.num_shards());

  JobSpec spec;
  spec.num_walkers = 3;
  spec.steps = 5;
  spec.seed = 777;
  const JobResult r = queue.wait(queue.submit(spec));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.shard, 0);
  EXPECT_EQ(r.walker_accepts, ref.walker_accepts);
  ASSERT_EQ(r.walker_log_det.size(), ref.walker_log_det.size());
  for (std::size_t w = 0; w < r.walker_log_det.size(); ++w) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &ref.walker_log_det[w], sizeof a);
    std::memcpy(&b, &r.walker_log_det[w], sizeof b);
    EXPECT_EQ(a, b) << "job walker " << w << " log-det bits differ";
  }
}

TEST(JobQueueSuite, PackingAndSubmissionOrderAreTrajectoryNeutral)
{
  const MiniQMCConfig base = make_cfg(4, 0);
  PopulationConfig pcfg;
  pcfg.qmc = base;
  pcfg.num_shards = 2;
  WalkerPopulation pop(pcfg);

  // Jobs with UNEQUAL step budgets (exercises longest-first prefix
  // retirement) under two different pack caps and submission orders.
  const int specs[][3] = {{2, 5, 11}, {1, 2, 22}, {3, 4, 33}, {2, 1, 44}};
  std::vector<std::vector<std::size_t>> accepts_by_seed[2];
  for (const int max_pack : {1, 4}) {
    JobQueue queue(pop, max_pack);
    std::vector<std::uint64_t> ids;
    if (max_pack == 1) {
      for (const auto& s : specs)
        ids.push_back(queue.submit(JobSpec{s[0], s[1], static_cast<std::uint64_t>(s[2])}));
    } else { // reversed submission order
      for (int i = 3; i >= 0; --i)
        ids.push_back(queue.submit(
            JobSpec{specs[i][0], specs[i][1], static_cast<std::uint64_t>(specs[i][2])}));
    }
    auto& acc = accepts_by_seed[max_pack == 1 ? 0 : 1];
    acc.resize(4);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const JobResult r = queue.wait(ids[i]);
      ASSERT_TRUE(r.ok) << r.error;
      const std::size_t spec_idx = max_pack == 1 ? i : 3 - i;
      acc[spec_idx] = r.walker_accepts;
    }
    EXPECT_EQ(queue.completed(), 4u);
    EXPECT_GE(queue.packed_batches(), 1u);
    EXPECT_LE(queue.packed_batches(), 4u);
  }
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(accepts_by_seed[0][static_cast<std::size_t>(i)],
              accepts_by_seed[1][static_cast<std::size_t>(i)])
        << "job " << i << " diverged across pack/order";
}

TEST(JobQueueSuite, DrainReturnsEverySubmittedJob)
{
  PopulationConfig pcfg;
  pcfg.qmc = make_cfg(4, 0);
  WalkerPopulation pop(pcfg);
  JobQueue queue(pop, 2);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    JobSpec spec;
    spec.num_walkers = 1;
    spec.steps = 1 + i % 3;
    spec.seed = static_cast<std::uint64_t>(100 + i);
    ids.push_back(queue.submit(spec));
  }
  const std::vector<JobResult> all = queue.drain();
  ASSERT_EQ(all.size(), ids.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, ids[i]) << "drain() must return submission order";
    EXPECT_TRUE(all[i].ok) << all[i].error;
  }
  EXPECT_TRUE(queue.drain().empty()); // one-shot handover
}

TEST(JobQueueSuite, MismatchedJobsAreRejectedWithSurfacedErrors)
{
  PopulationConfig pcfg;
  pcfg.qmc = make_cfg(4, 0);
  WalkerPopulation pop(pcfg);
  JobQueue queue(pop);

  JobSpec wrong_precision;
  wrong_precision.precision_bytes = 8; // resident engine is float
  const JobResult rp = queue.wait(queue.submit(wrong_precision));
  EXPECT_FALSE(rp.ok);
  EXPECT_NE(rp.error.find("precision"), std::string::npos) << rp.error;

  JobSpec wrong_grid;
  wrong_grid.grid_size = 32; // resident system is 16
  const JobResult rg = queue.wait(queue.submit(wrong_grid));
  EXPECT_FALSE(rg.ok);
  EXPECT_NE(rg.error.find("mismatch"), std::string::npos) << rg.error;

  JobSpec wrong_cell;
  wrong_cell.supercell = {2, 1, 1}; // resident system is {1,1,1}
  const JobResult rc = queue.wait(queue.submit(wrong_cell));
  EXPECT_FALSE(rc.ok);
  EXPECT_NE(rc.error.find("supercell"), std::string::npos) << rc.error;

  JobSpec bad_walkers;
  bad_walkers.num_walkers = 0;
  EXPECT_FALSE(queue.wait(queue.submit(bad_walkers)).ok);

  // Inheriting specs (zeros) still run fine after the rejections.
  JobSpec good;
  good.num_walkers = 1;
  good.steps = 2;
  EXPECT_TRUE(queue.wait(queue.submit(good)).ok);

  // Unknown / already-collected ids fail fast instead of hanging.
  EXPECT_FALSE(queue.wait(0).ok);
  EXPECT_FALSE(queue.wait(999).ok);
}

TEST(JobQueueSuite, SubmitAfterDrainIsRejected)
{
  PopulationConfig pcfg;
  pcfg.qmc = make_cfg(4, 0);
  WalkerPopulation pop(pcfg);
  JobQueue queue(pop, 2);

  JobSpec spec;
  spec.num_walkers = 1;
  spec.steps = 1;
  EXPECT_TRUE(queue.wait(queue.submit(spec)).ok);
  (void)queue.drain();

  // The queue is closed: a late submit must get a defined, surfaced
  // rejection — not an unspecified enqueue racing worker shutdown, and
  // never a silent drop.
  const std::uint64_t late = queue.submit(spec);
  const JobResult r = queue.wait(late);
  EXPECT_EQ(r.id, late);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("closed"), std::string::npos) << r.error;

  // The rejection is also retrievable via a later drain() when nobody
  // wait()ed for it.
  const std::uint64_t late2 = queue.submit(spec);
  const std::vector<JobResult> rest = queue.drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].id, late2);
  EXPECT_FALSE(rest[0].ok);
}

// Many threads hammering one queue with submit/wait while drain() races
// them: every job must land exactly one defined outcome (served, or the
// surfaced "queue closed" rejection) — no hang, no lost result.  The TSan
// CI lane runs this suite, so the locking discipline is checked for data
// races, not just for liveness.
TEST(JobQueueSuite, ConcurrentSubmittersHammerOneQueue)
{
  PopulationConfig pcfg;
  pcfg.qmc = make_cfg(4, 0);
  WalkerPopulation pop(pcfg);
  JobQueue queue(pop, 3);

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 12;
  std::atomic<int> served{0};
  std::atomic<int> rejected{0};
  std::atomic<int> collected{0}; ///< drain() got there first: defined fallback
  std::atomic<int> bad{0};

  auto tally = [&](const JobResult& r) {
    if (r.ok)
      served.fetch_add(1);
    else if (r.error.find("closed") != std::string::npos)
      rejected.fetch_add(1);
    else if (r.error.find("collected") != std::string::npos)
      collected.fetch_add(1);
    else
      bad.fetch_add(1); // unexpected failure mode
  };

  // A pre-storm wave served to completion: drain() below may win the race
  // against every threaded submit (all of them rejected is a legal outcome),
  // so the "something actually ran" check must not depend on that race.
  for (int j = 0; j < 3; ++j) {
    JobSpec spec;
    spec.num_walkers = 1;
    spec.steps = 1;
    spec.seed = static_cast<std::uint64_t>(1000 + j);
    tally(queue.wait(queue.submit(spec)));
  }

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        JobSpec spec;
        spec.num_walkers = 1;
        spec.steps = 1;
        spec.seed = static_cast<std::uint64_t>(1 + t * kJobsPerThread + j);
        tally(queue.wait(queue.submit(spec)));
      }
    });
  }
  // Race a drain() into the middle of the submit storm: jobs before the
  // close get served, jobs after get the rejection — both defined.  A job
  // drain() collected before its submitter's wait() is the third defined
  // outcome ("already collected"); only a genuinely unexpected error counts
  // as bad.
  std::vector<JobResult> drained = queue.drain();
  for (std::thread& t : submitters)
    t.join();
  for (const JobResult& r : drained)
    tally(r);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(served.load(), 0) << "drain closed before anything ran";
  const std::vector<JobResult> rest = queue.drain();
  for (const JobResult& r : rest)
    EXPECT_FALSE(r.error.empty());
}
