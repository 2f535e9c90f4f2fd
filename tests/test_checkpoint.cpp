// Crash-consistent checkpoint/restore (qmc/checkpoint.h).
//
// The contract under test: a run snapshotted at step k and resumed produces
// the bit-for-bit identical `walker_accepts` / `walker_log_det` fingerprints
// as the uninterrupted run — across spline layouts, both drivers, partition
// shapes, and snapshot intervals; the Sherman–Morrison inverse is stored
// verbatim, so a resumed walker continues from its accumulated bits.  And
// every way a snapshot file can be damaged (version skew,
// foreign config, per-section corruption, truncation, garbage) is detected
// and degrades to the `.prev` fallback or a fresh start — never a crash,
// never a silent wrong-state resume.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "qmc/checkpoint.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/walker_population.h"

using namespace mqc;

namespace {

/// RAII env var override (partition-shape tests).
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
      : path((std::filesystem::temp_directory_path() / ("mqc_ckpt_test_" + tag + ".ckpt"))
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

MiniQMCConfig make_cfg(DriverMode driver, SpoLayout spo, bool optimized, int delay)
{
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 16;
  cfg.num_walkers = 4;
  cfg.steps = 6;
  cfg.driver = driver;
  cfg.spo = spo;
  cfg.optimized_dt_jastrow = optimized;
  cfg.delay_rank = delay;
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

/// Reference 6-step run, then snapshot at step 4 and resume to 6; the resumed
/// trajectory must be bit-identical.
void round_trip_case(MiniQMCConfig cfg, const std::string& tag, int interval = 2)
{
  ScopedCkpt ck(tag);
  const MiniQMCResult ref = run_miniqmc(cfg);

  MiniQMCConfig part = cfg;
  part.steps = 4;
  part.checkpoint_path = ck.path;
  part.checkpoint_interval = interval;
  const MiniQMCResult first = run_miniqmc(part);
  EXPECT_GE(first.checkpoints_written, 1) << tag;

  MiniQMCConfig rest = cfg;
  rest.checkpoint_path = ck.path;
  rest.resume = true;
  const MiniQMCResult resumed = run_miniqmc(rest);
  EXPECT_EQ(resumed.resumed_from_step, 4) << tag;
  EXPECT_FALSE(resumed.resume_fallback_used) << tag;
  EXPECT_TRUE(resumed.resume_error.empty()) << tag << ": " << resumed.resume_error;
  expect_same_trajectory(ref, resumed, tag);
}

ckpt::Snapshot make_test_snapshot(std::uint64_t hash)
{
  ckpt::Snapshot snap;
  snap.config_hash = hash;
  ckpt::Section meta;
  meta.id = ckpt::SectionId::Meta;
  meta.index = 0;
  meta.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  ckpt::Section walker;
  walker.id = ckpt::SectionId::Walker;
  walker.index = 0;
  walker.payload.assign(64, 0xab);
  snap.sections = {meta, walker};
  return snap;
}

std::vector<std::uint8_t> slurp(const std::string& path)
{
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// ---------------------------------------------------------------------------
// Resume bit-exactness across the configuration grid
// ---------------------------------------------------------------------------

TEST(CheckpointRoundTrip, BitExactAcrossLayoutsDriversAndDelayRank)
{
  struct Layout
  {
    SpoLayout spo;
    bool optimized;
    const char* name;
  };
  // The engine and the distance-table layout are independent choices: the
  // last two rows cross them (the first is what bench_table3_profile runs).
  const Layout layouts[] = {{SpoLayout::AoS, false, "aos"},
                            {SpoLayout::SoA, true, "soa"},
                            {SpoLayout::AoSoA, true, "aosoa"},
                            {SpoLayout::AoS, true, "aos_soatables"},
                            {SpoLayout::AoSoA, false, "aosoa_aostables"}};
  for (const auto& layout : layouts)
    for (const DriverMode driver : {DriverMode::PerWalker, DriverMode::Crowd}) {
      const std::string tag = std::string(layout.name) + "_" +
                              (driver == DriverMode::Crowd ? "crowd" : "pw") + "_d1";
      round_trip_case(make_cfg(driver, layout.spo, layout.optimized, 1), tag);
    }
}

TEST(CheckpointRoundTrip, ResumeIsPartitionShapeNeutral)
{
  // Snapshot under one partition shape, resume under another: the trajectory
  // is scheduling-independent, so the config hash accepts the snapshot and
  // the fingerprints still match the no-env reference.
  const MiniQMCConfig cfg = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
  const MiniQMCResult ref = run_miniqmc(cfg);

  ScopedCkpt ck("partition_shape");
  {
    ScopedEnv env("MQC_PARTITION", "1x2");
    MiniQMCConfig part = cfg;
    part.steps = 4;
    part.checkpoint_path = ck.path;
    part.checkpoint_interval = 2;
    (void)run_miniqmc(part);
  }
  {
    ScopedEnv env("MQC_PARTITION", "2x1");
    MiniQMCConfig rest = cfg;
    rest.checkpoint_path = ck.path;
    rest.resume = true;
    const MiniQMCResult resumed = run_miniqmc(rest);
    EXPECT_EQ(resumed.resumed_from_step, 4);
    expect_same_trajectory(ref, resumed, "cross-partition resume");
  }
}

TEST(CheckpointRoundTrip, ResumeWorksAcrossDrivers)
{
  // The config trajectory hash deliberately excludes scheduling-only knobs
  // (driver mode, crowd size): a crowd-driver snapshot resumes under the
  // per-walker driver and lands on the same trajectory.
  const MiniQMCConfig pw = make_cfg(DriverMode::PerWalker, SpoLayout::SoA, true, 1);
  const MiniQMCResult ref = run_miniqmc(pw);

  ScopedCkpt ck("cross_driver");
  MiniQMCConfig part = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
  part.steps = 4;
  part.checkpoint_path = ck.path;
  part.checkpoint_interval = 2;
  (void)run_miniqmc(part);

  MiniQMCConfig rest = pw;
  rest.checkpoint_path = ck.path;
  rest.resume = true;
  const MiniQMCResult resumed = run_miniqmc(rest);
  EXPECT_EQ(resumed.resumed_from_step, 4);
  expect_same_trajectory(ref, resumed, "cross-driver resume");
}

TEST(CheckpointRoundTrip, SnapshotCadenceIsTrajectoryNeutral)
{
  // Snapshotting is a pure observer: interval 1 (a snapshot at every step
  // boundary) and interval 3 resume to the same fingerprints.
  round_trip_case(make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1), "interval1", 1);
  round_trip_case(make_cfg(DriverMode::PerWalker, SpoLayout::SoA, true, 1), "interval3", 3);
}

TEST(CheckpointRoundTrip, MixedPathRoundTripsAndRefusesCrossPrecisionResume)
{
  // A Mixed run snapshots and resumes bit-for-bit like any other config...
  {
    MiniQMCConfig cfg = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
    cfg.precision_path = PrecisionPath::Mixed;
    round_trip_case(cfg, "mixed_soa");
  }
  // ...but the RESOLVED precision path is part of the config hash: a
  // snapshot written under Mixed must not resume a Native run (the
  // trajectories diverge from the first accepted move), and vice versa.
  // The refusal is the ordinary config-hash rejection — surfaced in
  // resume_error with both hashes — followed by a clean fresh start.
  const auto cross_resume = [](PrecisionPath write_as, PrecisionPath resume_as,
                               const std::string& tag) {
    ScopedCkpt ck(tag);
    MiniQMCConfig wcfg = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
    wcfg.precision_path = write_as;
    wcfg.steps = 4;
    wcfg.checkpoint_path = ck.path;
    wcfg.checkpoint_interval = 2;
    EXPECT_GE(run_miniqmc(wcfg).checkpoints_written, 1) << tag;

    MiniQMCConfig rcfg = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
    rcfg.precision_path = resume_as;
    rcfg.checkpoint_path = ck.path;
    rcfg.resume = true;
    const MiniQMCResult ref = [&] {
      MiniQMCConfig fresh = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
      fresh.precision_path = resume_as;
      return run_miniqmc(fresh);
    }();
    const MiniQMCResult got = run_miniqmc(rcfg);
    EXPECT_EQ(got.resumed_from_step, -1) << tag;
    EXPECT_FALSE(got.resume_error.empty()) << tag;
    expect_same_trajectory(ref, got, tag + ": fresh-start after refusal");
  };
  cross_resume(PrecisionPath::Mixed, PrecisionPath::Native, "mixed_to_native");
  cross_resume(PrecisionPath::Native, PrecisionPath::Mixed, "native_to_mixed");
}

TEST(CheckpointRoundTrip, MissingSnapshotFallsBackToFreshStart)
{
  MiniQMCConfig cfg = make_cfg(DriverMode::PerWalker, SpoLayout::SoA, true, 1);
  const MiniQMCResult ref = run_miniqmc(cfg);
  // ScopedCkpt scrubs the rotation set up front: the fresh-start run itself
  // writes a final snapshot here, which must not leak into a later run.
  ScopedCkpt ck("never_written");
  cfg.checkpoint_path = ck.path;
  cfg.resume = true;
  const MiniQMCResult got = run_miniqmc(cfg);
  EXPECT_EQ(got.resumed_from_step, -1);
  EXPECT_FALSE(got.resume_error.empty());
  expect_same_trajectory(ref, got, "fresh-start fallback");
}

// ---------------------------------------------------------------------------
// End-of-run snapshot guarantee (edge cases around interval vs steps)
// ---------------------------------------------------------------------------

TEST(CheckpointRoundTrip, IntervalLargerThanStepsStillWritesFinalSnapshot)
{
  // interval > steps means no interior boundary ever hits the interval; the
  // clamped final boundary must still produce the end-of-run snapshot.
  for (const DriverMode driver : {DriverMode::PerWalker, DriverMode::Crowd}) {
    MiniQMCConfig cfg = make_cfg(driver, SpoLayout::SoA, true, 1);
    const MiniQMCResult ref = run_miniqmc(cfg);
    ScopedCkpt ck(driver == DriverMode::Crowd ? "bigint_crowd" : "bigint_pw");
    cfg.checkpoint_path = ck.path;
    cfg.checkpoint_interval = 100;
    const MiniQMCResult part = run_miniqmc(cfg);
    EXPECT_EQ(part.checkpoints_written, 1);
    ASSERT_TRUE(std::filesystem::exists(ck.path));

    MiniQMCConfig rest = cfg;
    rest.resume = true;
    const MiniQMCResult resumed = run_miniqmc(rest);
    EXPECT_EQ(resumed.resumed_from_step, cfg.steps);
    expect_same_trajectory(ref, resumed, "interval>steps final snapshot");
  }
}

TEST(CheckpointRoundTrip, ZeroStepRunStillWritesSnapshot)
{
  // steps == 0: the sweep loop never executes, but a set checkpoint path
  // must still leave the (initial-state) snapshot on disk — the resident
  // state on disk always matches the cursor.
  for (const DriverMode driver : {DriverMode::PerWalker, DriverMode::Crowd}) {
    MiniQMCConfig cfg = make_cfg(driver, SpoLayout::SoA, true, 1);
    cfg.steps = 0;
    ScopedCkpt ck(driver == DriverMode::Crowd ? "zerostep_crowd" : "zerostep_pw");
    cfg.checkpoint_path = ck.path;
    cfg.checkpoint_interval = 2;
    const MiniQMCResult got = run_miniqmc(cfg);
    EXPECT_EQ(got.checkpoints_written, 1);
    EXPECT_TRUE(std::filesystem::exists(ck.path));
  }
}

TEST(CheckpointRoundTrip, ResumeAtOrPastEndWritesSnapshotAndKeepsTrajectory)
{
  // A resume that lands exactly at cfg.steps sweeps nothing; it must not
  // crash, must re-assert the snapshot, and must report the completed-run
  // fingerprints unchanged.
  MiniQMCConfig cfg = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
  ScopedCkpt ck("resume_past_end");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_interval = 2;
  const MiniQMCResult full = run_miniqmc(cfg);

  MiniQMCConfig again = cfg;
  again.resume = true;
  const MiniQMCResult noop = run_miniqmc(again);
  EXPECT_EQ(noop.resumed_from_step, cfg.steps);
  EXPECT_EQ(noop.checkpoints_written, 1) << "no-op run must re-assert the snapshot";
  expect_same_trajectory(full, noop, "resume at end");
}

// ---------------------------------------------------------------------------
// WalkerPopulation persistence (service-layer resume)
// ---------------------------------------------------------------------------

namespace {

MiniQMCResult run_population_to(const MiniQMCConfig& cfg, int shards, int target)
{
  PopulationConfig pcfg;
  pcfg.qmc = cfg;
  pcfg.num_shards = shards;
  WalkerPopulation pop(pcfg);
  pop.run_to_step(target);
  return pop.result();
}

} // namespace

TEST(CheckpointPopulation, KilledPopulationResumesUnderDifferentShardCount)
{
  // Kill a 1-shard population at step 4 (destroy it mid-trajectory), resume
  // the snapshot under 3 shards and a different partition shape: shard
  // assignment is derived machine layout, not trajectory state, so the
  // fingerprints must match the uninterrupted single-shard run bit-for-bit.
  const MiniQMCConfig cfg = make_cfg(DriverMode::Crowd, SpoLayout::SoA, true, 1);
  const MiniQMCResult ref = run_miniqmc(cfg);

  ScopedCkpt ck("population_shards");
  MiniQMCConfig part = cfg;
  part.checkpoint_path = ck.path;
  part.checkpoint_interval = 2;
  {
    ScopedEnv env("MQC_PARTITION", "1x2");
    const MiniQMCResult first = run_population_to(part, 1, 4);
    EXPECT_GE(first.checkpoints_written, 1);
  }
  {
    ScopedEnv env("MQC_PARTITION", "2x1");
    MiniQMCConfig rest = part;
    rest.resume = true;
    PopulationConfig pcfg;
    pcfg.qmc = rest;
    pcfg.num_shards = 3;
    WalkerPopulation pop(pcfg);
    EXPECT_EQ(pop.current_step(), 4);
    pop.run_to_step(cfg.steps);
    const MiniQMCResult resumed = pop.result();
    EXPECT_EQ(resumed.resumed_from_step, 4);
    EXPECT_FALSE(resumed.resume_fallback_used);
    expect_same_trajectory(ref, resumed, "population cross-shard resume");
  }
}

TEST(CheckpointPopulation, SnapshotsInteroperateWithRunMiniqmcBothWays)
{
  const MiniQMCConfig cfg = make_cfg(DriverMode::PerWalker, SpoLayout::SoA, true, 1);
  const MiniQMCResult ref = run_miniqmc(cfg);

  // Population snapshot -> run_miniqmc resume.
  {
    ScopedCkpt ck("pop_to_driver");
    MiniQMCConfig part = cfg;
    part.checkpoint_path = ck.path;
    part.checkpoint_interval = 2;
    (void)run_population_to(part, 2, 4);
    MiniQMCConfig rest = cfg;
    rest.checkpoint_path = ck.path;
    rest.resume = true;
    const MiniQMCResult resumed = run_miniqmc(rest);
    EXPECT_EQ(resumed.resumed_from_step, 4);
    expect_same_trajectory(ref, resumed, "population snapshot -> driver");
  }
  // run_miniqmc snapshot -> population resume.
  {
    ScopedCkpt ck("driver_to_pop");
    MiniQMCConfig part = cfg;
    part.steps = 4;
    part.checkpoint_path = ck.path;
    part.checkpoint_interval = 2;
    (void)run_miniqmc(part);
    MiniQMCConfig rest = cfg;
    rest.checkpoint_path = ck.path;
    rest.resume = true;
    const MiniQMCResult resumed = run_population_to(rest, 2, cfg.steps);
    EXPECT_EQ(resumed.resumed_from_step, 4);
    expect_same_trajectory(ref, resumed, "driver snapshot -> population");
  }
}

// ---------------------------------------------------------------------------
// File format validation and fallback
// ---------------------------------------------------------------------------

TEST(CheckpointFormat, WriteReadRoundTrip)
{
  ScopedCkpt ck("format_roundtrip");
  const ckpt::Snapshot snap = make_test_snapshot(0x1234abcd5678ef01ull);
  std::string err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, snap, &err)) << err;
  ckpt::Snapshot out;
  const ckpt::LoadResult r = ckpt::read_snapshot(ck.path, snap.config_hash, out);
  ASSERT_TRUE(r.loaded()) << r.detail;
  EXPECT_EQ(out.config_hash, snap.config_hash);
  ASSERT_EQ(out.sections.size(), 2u);
  EXPECT_EQ(out.sections[0].payload, snap.sections[0].payload);
  EXPECT_EQ(out.sections[1].payload, snap.sections[1].payload);
  ASSERT_NE(out.find(ckpt::SectionId::Walker, 0), nullptr);
  EXPECT_EQ(out.find(ckpt::SectionId::Walker, 1), nullptr);
}

TEST(CheckpointFormat, VersionSkewIsRejectedEvenWithValidCrc)
{
  ScopedCkpt ck("format_version");
  std::string err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;
  // Patch the format-version field and RE-COMPUTE the header CRC, so only
  // the version check itself can reject the file.
  std::vector<std::uint8_t> bytes = slurp(ck.path);
  ASSERT_GE(bytes.size(), 28u);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof version);
  ++version;
  std::memcpy(bytes.data() + 8, &version, sizeof version);
  const std::uint32_t crc = ckpt::crc32(bytes.data(), 24);
  std::memcpy(bytes.data() + 24, &crc, sizeof crc);
  spit(ck.path, bytes);

  ckpt::Snapshot out;
  const ckpt::LoadResult r = ckpt::read_snapshot(ck.path, 7, out);
  EXPECT_EQ(r.error, ckpt::LoadError::Version);
  EXPECT_FALSE(r.loaded());
  // The rejection must say WHICH versions disagreed — found vs expected —
  // not just that "something" was wrong (operators debug skew from logs).
  EXPECT_NE(r.detail.find("format version " + std::to_string(ckpt::kFormatVersion + 1)),
            std::string::npos)
      << r.detail;
  EXPECT_NE(r.detail.find("this build reads " + std::to_string(ckpt::kFormatVersion)),
            std::string::npos)
      << r.detail;
}

TEST(CheckpointFormat, VersionOneSnapshotResumesFresh)
{
  // Version 1 stored every distance-table array in each walker section.  A
  // v1 header (CRC recomputed, so only the version check can refuse it) on
  // both the primary and .prev must end in a surfaced fresh start that runs
  // the fresh trajectory.
  ScopedCkpt ck("format_v1");
  MiniQMCConfig cfg = make_cfg(DriverMode::PerWalker, SpoLayout::SoA, true, 1);
  cfg.steps = 2;
  const MiniQMCResult fresh = run_miniqmc(cfg);
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_interval = 1;
  ASSERT_GE(run_miniqmc(cfg).checkpoints_written, 2);
  for (const std::string& file : {ck.path, ck.path + ".prev"}) {
    std::vector<std::uint8_t> bytes = slurp(file);
    ASSERT_GE(bytes.size(), 28u) << file;
    const std::uint32_t v1 = 1;
    std::memcpy(bytes.data() + 8, &v1, sizeof v1);
    const std::uint32_t crc = ckpt::crc32(bytes.data(), 24);
    std::memcpy(bytes.data() + 24, &crc, sizeof crc);
    spit(file, bytes);
  }

  MiniQMCConfig rest = cfg;
  rest.resume = true;
  const MiniQMCResult got = run_miniqmc(rest);
  EXPECT_EQ(got.resumed_from_step, -1) << got.resume_error;
  EXPECT_NE(got.resume_error.find("format version 1 (this build reads 2)"), std::string::npos)
      << got.resume_error;
  expect_same_trajectory(fresh, got, "v1 snapshot refused");
}

TEST(CheckpointFormat, GraphiteWalkerSectionHoldsNoDistanceTables)
{
  // A walker section holds the positions, the rng, the counters and the
  // determinant state only (checkpoint.h): for Sherman–Morrison,
  // 116 + 12 nel + 16 norb^2 bytes.  Graphite 4x4x1 (256 electrons, 128
  // orbitals) gives 265,332 bytes, about 0.26 MiB; version 1 added the 1 MiB
  // e-e and 0.25 MiB e-ion tables.  Both table layouts write the same bytes.
  for (const bool optimized : {true, false}) {
    ScopedCkpt ck(std::string("graphite_section_") + (optimized ? "soa" : "aos"));
    MiniQMCConfig cfg = make_cfg(DriverMode::PerWalker, SpoLayout::AoSoA, optimized, 0);
    cfg.supercell = {4, 4, 1};
    cfg.num_walkers = 1;
    cfg.steps = 1;
    cfg.checkpoint_path = ck.path;
    ASSERT_GE(run_miniqmc(cfg).checkpoints_written, 1);

    const std::vector<std::uint8_t> bytes = slurp(ck.path);
    constexpr std::size_t kMeta = 28;
    ASSERT_GE(bytes.size(), kMeta + 20);
    std::uint64_t meta_len = 0;
    std::memcpy(&meta_len, bytes.data() + kMeta + 8, sizeof meta_len);
    const std::size_t walker = kMeta + 20 + static_cast<std::size_t>(meta_len);
    ASSERT_GE(bytes.size(), walker + 20 + 73);
    std::uint32_t id = 0, nel = 0;
    std::uint64_t len = 0;
    std::memcpy(&id, bytes.data() + walker, sizeof id);
    std::memcpy(&len, bytes.data() + walker + 8, sizeof len);
    std::memcpy(&nel, bytes.data() + walker + 20 + 69, sizeof nel);
    ASSERT_EQ(id, static_cast<std::uint32_t>(ckpt::SectionId::Walker));
    ASSERT_EQ(nel, 256u);
    const std::uint64_t norb = 128;
    EXPECT_EQ(len, 116 + 12 * std::uint64_t{nel} + 16 * norb * norb) << "optimized " << optimized;
    EXPECT_EQ(len, 265332u);
    EXPECT_EQ(bytes.size(), walker + 20 + len) << "one walker section ends the file";
  }
}

TEST(CheckpointFormat, ImpossibleSectionCountIsRejectedEvenWithValidCrc)
{
  ScopedCkpt ck("format_count");
  std::string err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;
  // Inflate the section-count field and RE-COMPUTE the header CRC: only the
  // count bound stands between this header and a ~137 GB reserve.
  std::vector<std::uint8_t> bytes = slurp(ck.path);
  ASSERT_GE(bytes.size(), 28u);
  const std::uint32_t count = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 20, &count, sizeof count);
  const std::uint32_t crc = ckpt::crc32(bytes.data(), 24);
  std::memcpy(bytes.data() + 24, &crc, sizeof crc);
  spit(ck.path, bytes);

  ckpt::Snapshot out;
  const ckpt::LoadResult r = ckpt::read_snapshot(ck.path, 7, out);
  EXPECT_EQ(r.error, ckpt::LoadError::Truncated);
  EXPECT_FALSE(r.loaded());
  EXPECT_TRUE(out.sections.empty());
  // Found vs possible: the claimed count and the most the file could hold
  // (bytes after the 28-byte header over the 20-byte section header).
  const std::size_t possible = (bytes.size() - 28) / 20;
  EXPECT_NE(r.detail.find("4294967295 sections"), std::string::npos) << r.detail;
  EXPECT_NE(r.detail.find("at most " + std::to_string(possible)), std::string::npos)
      << r.detail;
}

TEST(CheckpointFormat, ForgedDmcWalkerCountIsRejectedEvenWithValidCrc)
{
  ScopedCkpt ck("format_dmc_count");
  MiniQMCConfig cfg = make_cfg(DriverMode::DMC, SpoLayout::SoA, true, 1);
  cfg.dmc_generations = 2;
  cfg.dmc_tau = 0.4;
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_interval = 1;
  ASSERT_GE(run_miniqmc(cfg).checkpoints_written, 1);

  // Forge the Meta walker count and the weight count that must agree with
  // it to 2^31 - 1, then RE-COMPUTE the section CRC: only the bytes-behind-it
  // bound stands between this count and a ~17 GB weight vector.  Layout: the
  // 28-byte file header, then Meta's section header (id, index, u64 length,
  // CRC at +16) and payload at +20.  In the payload, nw sits at +4 and the
  // DMC tail's weight count at +63 (after the 34-byte common prefix, the
  // tail marker, generation, trial energy, births and deaths).
  std::vector<std::uint8_t> bytes = slurp(ck.path);
  constexpr std::size_t kMeta = 28, kPayload = kMeta + 20;
  ASSERT_GE(bytes.size(), kPayload + 67);
  std::uint32_t id = 0;
  std::uint64_t len = 0;
  std::memcpy(&id, bytes.data() + kMeta, sizeof id);
  std::memcpy(&len, bytes.data() + kMeta + 8, sizeof len);
  ASSERT_EQ(id, static_cast<std::uint32_t>(ckpt::SectionId::Meta));
  ASSERT_GE(len, 67u);
  ASSERT_EQ(bytes[kPayload + 34], 1u) << "no DMC provenance tail marker";
  const std::uint32_t forged = 0x7FFFFFFFu;
  std::memcpy(bytes.data() + kPayload + 4, &forged, sizeof forged);
  std::memcpy(bytes.data() + kPayload + 63, &forged, sizeof forged);
  const std::uint32_t crc = ckpt::crc32(bytes.data() + kPayload, len);
  std::memcpy(bytes.data() + kMeta + 16, &crc, sizeof crc);
  spit(ck.path, bytes);

  MiniQMCConfig rest = cfg;
  rest.resume = true;
  const MiniQMCResult got = run_miniqmc(rest);
  EXPECT_EQ(got.resumed_from_step, -1) << got.resume_error;
  // Claimed vs possible: the forged count and what the Meta bytes after the
  // count field could hold.
  const std::size_t possible = (len - 67) / sizeof(double);
  EXPECT_NE(got.resume_error.find("claims 2147483647"), std::string::npos) << got.resume_error;
  EXPECT_NE(got.resume_error.find("at most " + std::to_string(possible)), std::string::npos)
      << got.resume_error;
}

TEST(CheckpointFormat, ForgedWalkerFlagBytesAreRejectedEvenWithValidCrc)
{
  ScopedCkpt ck("format_walker_flags");
  MiniQMCConfig cfg = make_cfg(DriverMode::PerWalker, SpoLayout::SoA, true, 1);
  cfg.steps = 2;
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_interval = 1;
  ASSERT_GE(run_miniqmc(cfg).checkpoints_written, 1);
  const std::vector<std::uint8_t> written = slurp(ck.path);

  // Walker section 0 follows the 28-byte file header and the Meta section
  // (20-byte section header, then its payload); its CRC sits at +16 of its
  // own section header.  In the walker payload the rng's have_gauss byte is
  // at +36 (after the slot id and four state words), nel at +69, and the
  // distance-table layout tag right after the positions, at +73 + 12 * nel.
  // Both flags are 0 or 1; set each to 0x02.  The spin-up determinant's
  // engine kind follows the tag and its u32 norb, at +tag + 5; set it to
  // 0x01, the removed delayed engine's kind.  RE-COMPUTE the section CRC
  // each time, so only the flag check itself can reject the walker.
  constexpr std::size_t kMeta = 28;
  ASSERT_GE(written.size(), kMeta + 20);
  std::uint64_t meta_len = 0;
  std::memcpy(&meta_len, written.data() + kMeta + 8, sizeof meta_len);
  const std::size_t walker = kMeta + 20 + static_cast<std::size_t>(meta_len);
  const std::size_t payload = walker + 20;
  ASSERT_GE(written.size(), payload + 73);
  std::uint32_t id = 0, index = 0, nel = 0;
  std::uint64_t len = 0;
  std::memcpy(&id, written.data() + walker, sizeof id);
  std::memcpy(&index, written.data() + walker + 4, sizeof index);
  std::memcpy(&len, written.data() + walker + 8, sizeof len);
  std::memcpy(&nel, written.data() + payload + 69, sizeof nel);
  ASSERT_EQ(id, static_cast<std::uint32_t>(ckpt::SectionId::Walker));
  ASSERT_EQ(index, 0u);
  const std::size_t tag = 73 + 12 * static_cast<std::size_t>(nel);
  ASSERT_GT(len, tag + 5);
  ASSERT_EQ(written[payload + tag], 1u) << "expected the SoA-table layout tag";
  ASSERT_EQ(written[payload + tag + 5], 0u) << "expected the Sherman-Morrison kind";

  struct Forgery
  {
    std::size_t at;
    std::uint8_t value;
    const char* what;
  };
  for (const auto& [at, value, what] :
       {Forgery{36, 0x02, "have_gauss"}, Forgery{tag, 0x02, "layout"},
        Forgery{tag + 5, 0x01, "determinant kind"}}) {
    std::vector<std::uint8_t> bytes = written;
    bytes[payload + at] = value;
    const std::uint32_t crc = ckpt::crc32(bytes.data() + payload, static_cast<std::size_t>(len));
    std::memcpy(bytes.data() + walker + 16, &crc, sizeof crc);
    spit(ck.path, bytes);

    MiniQMCConfig rest = cfg;
    rest.resume = true;
    const MiniQMCResult got = run_miniqmc(rest);
    EXPECT_EQ(got.resumed_from_step, -1) << what << ": " << got.resume_error;
    EXPECT_NE(got.resume_error.find("walker section 0 failed layout checks"), std::string::npos)
        << what << ": " << got.resume_error;
  }
}

TEST(CheckpointFormat, ConfigHashMismatchIsRejected)
{
  ScopedCkpt ck("format_confhash");
  std::string err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;
  ckpt::Snapshot out;
  const ckpt::LoadResult r = ckpt::read_snapshot(ck.path, 8, out);
  EXPECT_EQ(r.error, ckpt::LoadError::ConfigHash);
  // Both hashes — the snapshot's and this run's — must be surfaced in the
  // detail so a mismatched resume is diagnosable without a hex dump.
  EXPECT_NE(r.detail.find("0x0000000000000007"), std::string::npos) << r.detail;
  EXPECT_NE(r.detail.find("0x0000000000000008"), std::string::npos) << r.detail;
}

TEST(CheckpointFormat, GarbageFileIsRejectedOnMagic)
{
  ScopedCkpt ck("format_magic");
  spit(ck.path, std::vector<std::uint8_t>(64, 'x'));
  ckpt::Snapshot out;
  EXPECT_EQ(ckpt::read_snapshot(ck.path, 0, out).error, ckpt::LoadError::Magic);
}

TEST(CheckpointFormat, PerSectionCorruptionIsDetectedByCrc)
{
  for (const auto& [plan, what] :
       {std::pair{ckpt::FaultPlan{.corrupt_meta = true}, "meta"},
        std::pair{ckpt::FaultPlan{.corrupt_walker = 0}, "walker0"}}) {
    ScopedCkpt ck(std::string("format_crc_") + what);
    std::string err;
    ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;
    ASSERT_TRUE(ckpt::apply_file_faults(ck.path, plan)) << what;
    ckpt::Snapshot out;
    const ckpt::LoadResult r = ckpt::read_snapshot(ck.path, 7, out);
    EXPECT_EQ(r.error, ckpt::LoadError::SectionCrc) << what << ": " << r.detail;
    EXPECT_FALSE(r.detail.empty()) << what;
  }
}

TEST(CheckpointFormat, HeaderCorruptionIsDetected)
{
  ScopedCkpt ck("format_header");
  std::string err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;
  ckpt::FaultPlan plan;
  plan.corrupt_header = true;
  ASSERT_TRUE(ckpt::apply_file_faults(ck.path, plan));
  ckpt::Snapshot out;
  const ckpt::LoadResult r = ckpt::read_snapshot(ck.path, 7, out);
  // A flipped header byte lands in the config-hash field: caught by the
  // header CRC before the hash comparison can mis-route the diagnosis.
  EXPECT_EQ(r.error, ckpt::LoadError::Header) << r.detail;
}

TEST(CheckpointFormat, TruncationIsDetected)
{
  ScopedCkpt ck("format_trunc");
  std::string err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;
  ckpt::FaultPlan plan;
  plan.truncate_tail = 10;
  ASSERT_TRUE(ckpt::apply_file_faults(ck.path, plan));
  ckpt::Snapshot out;
  EXPECT_EQ(ckpt::read_snapshot(ck.path, 7, out).error, ckpt::LoadError::Truncated);
}

TEST(CheckpointFormat, DamagedPrimaryFallsBackToPrev)
{
  ScopedCkpt ck("format_fallback");
  std::string err;
  // First write lands at path; the second rotates it to .prev.
  ckpt::Snapshot older = make_test_snapshot(7);
  older.sections[1].payload.assign(64, 0x11);
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, older, &err)) << err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;

  ckpt::FaultPlan plan;
  plan.corrupt_walker = 0;
  ASSERT_TRUE(ckpt::apply_file_faults(ck.path, plan));

  ckpt::Snapshot out;
  const ckpt::LoadResult r = ckpt::read_snapshot_with_fallback(ck.path, 7, out);
  ASSERT_TRUE(r.loaded()) << r.detail;
  EXPECT_TRUE(r.fallback_used);
  EXPECT_EQ(r.path_used, ck.path + ".prev");
  ASSERT_NE(out.find(ckpt::SectionId::Walker, 0), nullptr);
  EXPECT_EQ(out.find(ckpt::SectionId::Walker, 0)->payload[0], 0x11); // the older state

  // Both damaged: the load fails cleanly with the primary's diagnosis.
  ASSERT_TRUE(ckpt::apply_file_faults(ck.path + ".prev", plan));
  const ckpt::LoadResult both = ckpt::read_snapshot_with_fallback(ck.path, 7, out);
  EXPECT_FALSE(both.loaded());
  EXPECT_EQ(both.error, ckpt::LoadError::SectionCrc);
}

// ---------------------------------------------------------------------------
// Building blocks: blob codec, rng state, fault-plan parsing
// ---------------------------------------------------------------------------

TEST(CheckpointBlob, ReaderLatchesFailureOnUnderrun)
{
  ckpt::BlobWriter w;
  w.u32(0xdeadbeef);
  const std::vector<std::uint8_t> bytes = w.take();
  ckpt::BlobReader r(bytes.data(), 2); // truncated mid-scalar
  EXPECT_EQ(r.u32(), 0u);              // zero-filled, never out-of-bounds
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.exhausted()); // latched: all further reads fail too
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(CheckpointRng, StateRoundTripPreservesGaussianCache)
{
  // Box–Muller generates deviates in pairs and caches the second; a restore
  // that dropped the cache would shift every subsequent gaussian by one and
  // fork the trajectory.  Draw an ODD number so the cache is loaded.
  Xoshiro256 a = Xoshiro256::for_stream(1234, 5);
  (void)a.gaussian();
  const Xoshiro256::State saved = a.state();

  Xoshiro256 b(999); // deliberately different stream before restore
  b.set_state(saved);
  for (int i = 0; i < 16; ++i) {
    const double ga = a.gaussian(), gb = b.gaussian();
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &ga, sizeof ba);
    std::memcpy(&bb, &gb, sizeof bb);
    ASSERT_EQ(ba, bb) << "gaussian " << i;
    ASSERT_EQ(a(), b()) << "raw draw " << i;
  }
}

TEST(CheckpointFaults, ParsesWellFormedSpecs)
{
  const ckpt::FaultPlan p = ckpt::parse_fault_plan("abort@3,corrupt@walker1,truncate@40");
  EXPECT_TRUE(p.armed());
  EXPECT_EQ(p.abort_at_step, 3);
  EXPECT_EQ(p.corrupt_walker, 1);
  EXPECT_EQ(p.truncate_tail, 40);
  EXPECT_FALSE(p.corrupt_header);
  EXPECT_FALSE(p.corrupt_meta);

  const ckpt::FaultPlan q = ckpt::parse_fault_plan("abort@0,corrupt@header");
  EXPECT_TRUE(q.armed());
  EXPECT_EQ(q.abort_at_step, 0);
  EXPECT_TRUE(q.corrupt_header);

  EXPECT_TRUE(ckpt::parse_fault_plan("corrupt@meta").corrupt_meta);
}

TEST(CheckpointFaults, MalformedTokensAreIgnoredNotArmed)
{
  // Malformed tokens warn on stderr and are dropped — never UB, never a
  // partially-armed plan from garbage.
  EXPECT_FALSE(ckpt::parse_fault_plan("").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("   ").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("bogus").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("abort@").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("abort@notanumber").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("explode@3").armed());
  const ckpt::FaultPlan mixed = ckpt::parse_fault_plan("abort@2,corrupt@nonsense");
  EXPECT_EQ(mixed.abort_at_step, 2); // the valid token still applies
  EXPECT_FALSE(mixed.corrupt_header);
  EXPECT_FALSE(mixed.corrupt_meta);
  EXPECT_EQ(mixed.corrupt_walker, -1);
}

TEST(CheckpointFaults, SignedStepNumbersAreRejected)
{
  // strtol would happily parse "+3" and "-0"; the spec grammar is digits
  // only, so signed forms must be dropped (warned), never armed.
  EXPECT_FALSE(ckpt::parse_fault_plan("abort@+3").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("abort@-3").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("abort@ 3").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("corrupt@walker+1").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("corrupt@walker-1").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("truncate@+40").armed());
  EXPECT_FALSE(ckpt::parse_fault_plan("abort@99999999999999999999").armed()); // overflow
  const ckpt::FaultPlan mixed = ckpt::parse_fault_plan("abort@+3,truncate@40");
  EXPECT_EQ(mixed.abort_at_step, -1); // the signed token alone is dropped
  EXPECT_EQ(mixed.truncate_tail, 40);
}

TEST(CheckpointFaults, OutOfRangeWalkerInjectionIsReportedAsNoop)
{
  // corrupt@walker<i> with i >= the snapshot's population finds no section:
  // apply_file_faults must return false (no-op surfaced, warned on stderr)
  // and leave the file undamaged so a resume still loads it.
  ScopedCkpt ck("fault_noop");
  std::string err;
  ASSERT_TRUE(ckpt::write_snapshot(ck.path, make_test_snapshot(7), &err)) << err;
  ckpt::FaultPlan plan;
  plan.corrupt_walker = 99; // snapshot only has walker 0
  EXPECT_FALSE(ckpt::apply_file_faults(ck.path, plan));
  ckpt::Snapshot out;
  EXPECT_TRUE(ckpt::read_snapshot(ck.path, 7, out).loaded()) << "no-op damaged the file";

  // A mixed plan where one token lands and one misses is still a no-op
  // overall (false), but the landing token DOES damage the file.
  ckpt::FaultPlan mixed;
  mixed.corrupt_walker = 99;
  mixed.corrupt_meta = true;
  EXPECT_FALSE(ckpt::apply_file_faults(ck.path, mixed));
  EXPECT_FALSE(ckpt::read_snapshot(ck.path, 7, out).loaded());
}
