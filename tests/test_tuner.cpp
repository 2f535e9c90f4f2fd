// Tests for the tile-size tuner and its FFTW-style wisdom persistence.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/sysinfo.h"
#include "common/threading.h"
#include "core/synthetic_orbitals.h"
#include "core/tuner.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/miniqmc_tuner.h"

using namespace mqc;

TEST(Wisdom, KeyFormat)
{
  const auto key = Wisdom::make_key("vgh", "float", 2048, 48, 48, 48);
  EXPECT_EQ(key, "vgh:float:N=2048:grid=48x48x48");
}

TEST(Wisdom, KeyFormatV2)
{
  const auto key = Wisdom::make_key_v2("vgh", "float", 2048, 48, 48, 48, 16);
  EXPECT_EQ(key, "v2:vgh:float:N=2048:grid=48x48x48:nw=16");
}

TEST(Wisdom, InsertLookup)
{
  Wisdom w;
  EXPECT_FALSE(w.lookup("missing").has_value());
  w.insert("k1", {64, 1.5e9});
  const auto e = w.lookup("k1");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tile_size, 64);
  EXPECT_DOUBLE_EQ(e->throughput, 1.5e9);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Wisdom, SaveLoadRoundTrip)
{
  const std::string path = std::filesystem::temp_directory_path() / "mqc_wisdom_test.txt";
  Wisdom w;
  w.insert(Wisdom::make_key("vgh", "float", 512, 48, 48, 48), {128, 2.5e9});
  w.insert(Wisdom::make_key("v", "double", 256, 32, 32, 32), {64, 1.0e9});
  ASSERT_TRUE(w.save(path));

  Wisdom r;
  ASSERT_TRUE(r.load(path));
  EXPECT_EQ(r.size(), 2u);
  const auto e = r.lookup(Wisdom::make_key("vgh", "float", 512, 48, 48, 48));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tile_size, 128);
  EXPECT_NEAR(e->throughput, 2.5e9, 1.0);
  std::remove(path.c_str());
}

TEST(Wisdom, LoadMissingFileFails)
{
  Wisdom w;
  EXPECT_FALSE(w.load("/nonexistent/path/wisdom.txt"));
}

TEST(Wisdom, JointKeyRoundTripWithPosBlock)
{
  // The v2 schema persists the jointly tuned (Nb, P) pair.
  const std::string path = std::filesystem::temp_directory_path() / "mqc_wisdom_v2_test.txt";
  Wisdom w;
  w.insert(Wisdom::make_key_v2("vgh", "float", 1024, 48, 48, 48, 8), {128, 3.5e9, 8});
  w.insert(Wisdom::make_key_v2("vgh", "double", 512, 32, 32, 32, 16), {64, 9.0e8, 4});
  ASSERT_TRUE(w.save(path));

  Wisdom r;
  ASSERT_TRUE(r.load(path));
  EXPECT_EQ(r.size(), 2u);
  const auto e = r.lookup(Wisdom::make_key_v2("vgh", "float", 1024, 48, 48, 48, 8));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tile_size, 128);
  EXPECT_EQ(e->pos_block, 8);
  EXPECT_NEAR(e->throughput, 3.5e9, 1.0);
  const auto d = r.lookup(Wisdom::make_key_v2("vgh", "double", 512, 32, 32, 32, 16));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->pos_block, 4);
  std::remove(path.c_str());
}

TEST(Wisdom, V3RoundTripWithCrowdSize)
{
  // The v3 schema adds the tuned crowd size to the (Nb, P) pair.
  const std::string path = std::filesystem::temp_directory_path() / "mqc_wisdom_v3_test.txt";
  Wisdom w;
  w.insert(miniqmc_wisdom_key(512, 32, 16), {128, 3.5e9, 8, 4});
  ASSERT_TRUE(w.save(path));

  Wisdom r;
  ASSERT_TRUE(r.load(path));
  const auto e = r.lookup(miniqmc_wisdom_key(512, 32, 16));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tile_size, 128);
  EXPECT_EQ(e->pos_block, 8);
  EXPECT_EQ(e->crowd_size, 4);
  EXPECT_NEAR(e->throughput, 3.5e9, 1.0);
  std::remove(path.c_str());
}

TEST(Wisdom, V4RoundTripWithInnerThreads)
{
  // The v4 schema adds the tuned nested inner-team size.
  const std::string path = std::filesystem::temp_directory_path() / "mqc_wisdom_v4_test.txt";
  Wisdom w;
  w.insert(miniqmc_wisdom_key(512, 32, 16), {128, 3.5e9, 8, 4, 2});
  ASSERT_TRUE(w.save(path));

  Wisdom r;
  ASSERT_TRUE(r.load(path));
  const auto e = r.lookup(miniqmc_wisdom_key(512, 32, 16));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tile_size, 128);
  EXPECT_EQ(e->pos_block, 8);
  EXPECT_EQ(e->crowd_size, 4);
  EXPECT_EQ(e->inner_threads, 2);
  EXPECT_NEAR(e->throughput, 3.5e9, 1.0);
  std::remove(path.c_str());
}

TEST(Wisdom, V5RoundTripWithPrecision)
{
  // The v5 schema stamps the precision family the knobs were tuned under
  // (0 = native, 1 = mixed): a pos_block tuned against DP-table bandwidth is
  // the wrong knob for a half-size mixed table.
  const std::string path = std::filesystem::temp_directory_path() / "mqc_wisdom_v5_test.txt";
  Wisdom w;
  w.insert(miniqmc_wisdom_key(512, 32, 16), {128, 3.5e9, 8, 4, 2, 1});
  ASSERT_TRUE(w.save(path));

  Wisdom r;
  ASSERT_TRUE(r.load(path));
  const auto e = r.lookup(miniqmc_wisdom_key(512, 32, 16));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tile_size, 128);
  EXPECT_EQ(e->pos_block, 8);
  EXPECT_EQ(e->crowd_size, 4);
  EXPECT_EQ(e->inner_threads, 2);
  EXPECT_EQ(e->precision, 1);
  EXPECT_NEAR(e->throughput, 3.5e9, 1.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Load hardening: a truncated or garbage wisdom file must never crash and
// never silently half-load — the whole file is rejected, existing entries
// survive, and load_status() carries the diagnosis (one corrupt artifact per
// failure mode, lint-fixture style).
// ---------------------------------------------------------------------------

namespace {

/// Write @p body to a temp wisdom file, load it into a Wisdom that already
/// holds one good entry, and require the all-or-nothing rejection contract.
/// @p detail_has names the validator the file must reach: the diagnosis
/// has to contain it.
void expect_rejected(const std::string& tag, const std::string& body,
                     const std::string& detail_has)
{
  const std::string path =
      std::filesystem::temp_directory_path() / ("mqc_wisdom_corrupt_" + tag + ".txt");
  {
    std::ofstream out(path);
    out << body;
  }
  Wisdom w;
  w.insert("pre-existing", {64, 1.0e9});
  EXPECT_FALSE(w.load(path)) << tag;
  EXPECT_TRUE(w.load_status().attempted) << tag;
  EXPECT_FALSE(w.load_status().ok) << tag;
  EXPECT_GE(w.load_status().lines_rejected, 1) << tag;
  EXPECT_NE(w.load_status().detail.find(detail_has), std::string::npos)
      << tag << ": " << w.load_status().detail;
  // Nothing merged, nothing lost: the corrupt file's parseable lines must
  // NOT leak in, and entries present before the load must survive.
  EXPECT_EQ(w.size(), 1u) << tag;
  EXPECT_TRUE(w.lookup("pre-existing").has_value()) << tag;
  std::remove(path.c_str());
}

} // namespace

// Only v5 lines load.  Loading a file with a v1-v4 line shape (two to five
// numeric fields) rejects the whole file, and the detail names the pre-v5
// field count.  The LoadsLegacyV*Lines names date from when these shapes
// were upgraded on load; each test now pins the rejection of its shape.
namespace {

void expect_pre_v5_rejected(const std::string& version, const std::string& line, int fields)
{
  expect_rejected("pre_v5_" + version, "good:key 128 8 4 2 0 2.5e+09\n" + line,
                  std::to_string(fields) + " numeric fields is the pre-v5");
}

} // namespace

TEST(Wisdom, LoadsLegacyV1Lines)
{
  expect_pre_v5_rejected("v1", "vgh:float:N=512:grid=48x48x48 128 2.5e+09\n", 2);
}

TEST(Wisdom, LoadsLegacyV2Lines)
{
  expect_pre_v5_rejected("v2", "v2:vgh:float:N=512:grid=48x48x48:nw=8 128 4 2.5e+09\n", 3);
}

TEST(Wisdom, LoadsLegacyV3Lines)
{
  expect_pre_v5_rejected("v3", "v2:miniqmc:float:N=512:grid=32x32x32:nw=16 128 8 4 3.5e+09\n", 4);
}

TEST(Wisdom, LoadsLegacyV4Lines)
{
  expect_pre_v5_rejected("v4", "v2:miniqmc:float:N=512:grid=32x32x32:nw=16 128 8 4 2 3.5e+09\n",
                         5);
}

// The hardening cases below are v5 lines, each damaged so that it reaches
// the validator the test name promises.
TEST(WisdomHardening, TruncatedV1LineRejectsWholeFile)
{
  // Line cut off mid-entry: key + tile but nothing after it.
  expect_rejected("v5_truncated",
                  "good:key 128 8 4 2 0 2.5e+09\n"
                  "vgh:float:N=512:grid=48x48x48 128\n",
                  "too few fields");
}

TEST(WisdomHardening, GarbageTokenInV2LineRejectsWholeFile)
{
  expect_rejected("v5_garbage", "v2:vgh:float:N=512:grid=48x48x48:nw=8 128 four 4 2 0 2.5e+09\n",
                  "unexpected field 'four'");
}

TEST(WisdomHardening, NegativeKnobInV3LineRejectsWholeFile)
{
  expect_rejected("v5_negative",
                  "v2:miniqmc:float:N=512:grid=32x32x32:nw=16 128 8 -4 2 0 3.5e+09\n",
                  "non-negative integers");
}

TEST(WisdomHardening, ExtraFieldsInV4LineRejectsWholeFile)
{
  expect_rejected("v5_extra",
                  "v2:miniqmc:float:N=512:grid=32x32x32:nw=16 128 8 4 2 0 3.5e+09 junk\n",
                  "unexpected field 'junk'");
}

TEST(WisdomHardening, OutOfRangePrecisionRejectsWholeFile)
{
  // precision is an enum ordinal: only 0 (native) and 1 (mixed) exist.
  expect_rejected("v5_bad_precision",
                  "v2:miniqmc:float:N=512:grid=32x32x32:nw=16 128 8 4 2 3 3.5e+09\n",
                  "non-negative integers");
}

TEST(WisdomHardening, NonIntegralKnobRejectsWholeFile)
{
  expect_rejected("v5_fractional", "v2:vgh:float:N=512:grid=48x48x48:nw=8 128 4.5 4 2 0 2.5e+09\n",
                  "non-negative integers");
}

TEST(WisdomHardening, NonFiniteThroughputRejectsWholeFile)
{
  expect_rejected("v5_nan", "v2:miniqmc:float:N=512:grid=32x32x32:nw=16 128 8 4 2 0 nan\n",
                  "throughput must be finite");
}

TEST(WisdomHardening, UnreadablePathSurfacesOpenFailure)
{
  Wisdom w;
  EXPECT_FALSE(w.load("/nonexistent/path/wisdom.txt"));
  EXPECT_TRUE(w.load_status().attempted);
  EXPECT_FALSE(w.load_status().ok);
  EXPECT_NE(w.load_status().detail.find("cannot open"), std::string::npos);
}

TEST(WisdomHardening, CleanLoadReportsStatus)
{
  const std::string path = std::filesystem::temp_directory_path() / "mqc_wisdom_status_test.txt";
  Wisdom w;
  w.insert("k1", {64, 1.5e9});
  w.insert("k2", {128, 2.5e9, 4, 2, 1});
  ASSERT_TRUE(w.save(path));
  Wisdom r;
  ASSERT_TRUE(r.load(path));
  EXPECT_TRUE(r.load_status().attempted);
  EXPECT_TRUE(r.load_status().ok);
  EXPECT_EQ(r.load_status().entries_loaded, 2);
  EXPECT_EQ(r.load_status().lines_rejected, 0);
  EXPECT_TRUE(r.load_status().detail.empty());
  std::remove(path.c_str());
}

TEST(Wisdom, MiniqmcKeyFormat)
{
  EXPECT_EQ(miniqmc_wisdom_key(512, 32, 16), "v2:miniqmc:float:N=512:grid=32x32x32:nw=16");
}

TEST(Tuner, DefaultCandidatesArePowersOfTwoUpToN)
{
  const auto c = default_tile_candidates(256, 16);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.front(), 16);
  EXPECT_EQ(c[3], 128);
  EXPECT_EQ(c.back(), 256);
}

TEST(Tuner, DefaultCandidatesNonPowerN)
{
  const auto c = default_tile_candidates(96, 16);
  // 16, 32, 64, 96
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.back(), 96);
}

// The L1d rule: the largest power-of-two lane multiple Nb whose 10-stream
// VGH output block (10 x Nb x sizeof(T)) fits one hardware thread's share.
TEST(Tuner, L1dTileSizeKnownAnswers)
{
  EXPECT_EQ(l1d_tile_size<float>(48 * 1024, 1), 1024); // 49152 / 40 = 1228
  EXPECT_EQ(l1d_tile_size<double>(48 * 1024, 1), 512); // 49152 / 80 = 614
  EXPECT_EQ(l1d_tile_size<float>(32 * 1024, 1), 512);  // 32768 / 40 = 819
  EXPECT_EQ(l1d_tile_size<float>(32 * 1024, 4), 128);  // KNL-like: 8192 / 40 = 204
  EXPECT_EQ(l1d_tile_size<float>(0, 1), 128);          // L1d unknown
  EXPECT_EQ(l1d_tile_size<double>(0, 1), 128);
  EXPECT_EQ(l1d_tile_size<float>(1024, 1), 16);        // 1024 / 40 = 25
  EXPECT_EQ(l1d_tile_size<float>(64, 1), 16);          // never below one lane block
  EXPECT_EQ(l1d_tile_size<float>(32 * 1024, 0), 512);  // unknown SMT counts as 1
}

template <typename T>
void expect_lane_power_multiples()
{
  constexpr int lanes = static_cast<int>(simd_lanes<T>);
  for (std::size_t l1d : {std::size_t{0}, std::size_t{64}, std::size_t{1000}, std::size_t{4096},
                          std::size_t{24} << 10, std::size_t{32} << 10, std::size_t{48} << 10,
                          std::size_t{80} << 10, std::size_t{1} << 20, std::size_t{1} << 26})
    for (int threads : {1, 2, 3, 4, 8}) {
      const int nb = l1d_tile_size<T>(l1d, threads);
      ASSERT_GE(nb, lanes) << l1d << " B / " << threads;
      ASSERT_EQ(nb % lanes, 0) << l1d << " B / " << threads;
      const int blocks = nb / lanes;
      ASSERT_EQ(blocks & (blocks - 1), 0) << l1d << " B / " << threads << " -> " << nb;
      if (l1d == 0)
        continue;
      const std::size_t share = l1d / static_cast<std::size_t>(threads);
      const std::size_t block_bytes = 10 * sizeof(T) * static_cast<std::size_t>(nb);
      if (nb > lanes) {
        EXPECT_LE(block_bytes, share) << l1d << " B / " << threads; // fits...
      }
      EXPECT_GT(2 * block_bytes, share) << l1d << " B / " << threads; // ...and is the largest
    }
}

TEST(Tuner, L1dTileSizeIsAPowerOfTwoLaneMultiple)
{
  expect_lane_power_multiples<float>();
  expect_lane_power_multiples<double>();
}

TEST(Tuner, MiniQMCConfigDefaultsToTheHostTileSize)
{
  const int host = l1d_tile_size<float>(query_system_info().l1d_bytes, machine_topology().smt);
  EXPECT_EQ(host_tile_size<float>(), host);
  EXPECT_EQ(MiniQMCConfig{}.tile_size, host);
  EXPECT_EQ(host_tile_size<double>(),
            l1d_tile_size<double>(query_system_info().l1d_bytes, machine_topology().smt));
}

TEST(Tuner, DefaultBlockCandidatesPowersOfTwoUpToPopulation)
{
  const auto c = default_block_candidates(8);
  ASSERT_EQ(c.size(), 4u); // 1 2 4 8
  EXPECT_EQ(c.front(), 1);
  EXPECT_EQ(c.back(), 8);
  const auto odd = default_block_candidates(6);
  // 1 2 4 6
  ASSERT_EQ(odd.size(), 4u);
  EXPECT_EQ(odd.back(), 6);
  const auto one = default_block_candidates(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front(), 1);
}

TEST(Tuner, JointSweepReturnsBestPair)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 64, 9);
  const auto result = tune_tile_block_vgh(*coefs, {16, 32}, {1, 2, 4, 8}, /*num_walkers=*/6,
                                          /*min_seconds=*/0.004);
  // Block candidate 8 > population 6 is skipped: 2 tiles x 3 blocks.
  EXPECT_EQ(result.tiles.size(), 6u);
  EXPECT_EQ(result.blocks.size(), 6u);
  EXPECT_EQ(result.throughputs.size(), 6u);
  EXPECT_GT(result.best_throughput, 0.0);
  EXPECT_GT(result.best_tile, 0);
  EXPECT_GT(result.best_block, 0);
  bool best_found = false;
  for (std::size_t i = 0; i < result.tiles.size(); ++i) {
    EXPECT_GT(result.throughputs[i], 0.0);
    EXPECT_LE(result.throughputs[i], result.best_throughput + 1e-9);
    if (result.tiles[i] == result.best_tile && result.blocks[i] == result.best_block) {
      best_found = true;
      EXPECT_DOUBLE_EQ(result.throughputs[i], result.best_throughput);
    }
  }
  EXPECT_TRUE(best_found);
}

TEST(Tuner, SweepReturnsBestCandidate)
{
  const auto grid = Grid3D<float>::cube(8, 1.0f);
  auto coefs = make_random_storage<float>(grid, 64, 9);
  const auto result = tune_tile_size_vgh(*coefs, {16, 32, 64}, /*ns=*/8, /*min_seconds=*/0.005);
  EXPECT_EQ(result.tiles.size(), 3u);
  EXPECT_EQ(result.throughputs.size(), 3u);
  EXPECT_GT(result.best_throughput, 0.0);
  bool best_found = false;
  for (std::size_t i = 0; i < result.tiles.size(); ++i) {
    EXPECT_GT(result.throughputs[i], 0.0);
    EXPECT_LE(result.throughputs[i], result.best_throughput + 1e-9);
    if (result.tiles[i] == result.best_tile) {
      best_found = true;
      EXPECT_DOUBLE_EQ(result.throughputs[i], result.best_throughput);
    }
  }
  EXPECT_TRUE(best_found);
}

// ---------------------------------------------------------------------------
// miniQMC driver tuning: the crowd-size sweep and the wisdom consumption by
// run_miniqmc's dispatch (tuning knobs must never change trajectories).
// ---------------------------------------------------------------------------

namespace {

MiniQMCConfig tuner_driver_config()
{
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 12;
  cfg.num_splines = 16;
  cfg.steps = 1;
  cfg.num_walkers = 4;
  cfg.quadrature_points = 2;
  cfg.spo = SpoLayout::AoSoA;
  cfg.tile_size = 16;
  cfg.optimized_dt_jastrow = true;
  return cfg;
}

} // namespace

TEST(Tuner, CrowdSizeSweepProbesTheRealDriver)
{
  const auto cfg = tuner_driver_config();
  const auto result = tune_crowd_size(cfg, {1, 2, 4, 8});
  // Candidate 8 > population 4 is skipped.
  ASSERT_EQ(result.crowd_sizes.size(), 3u);
  ASSERT_EQ(result.seconds.size(), 3u);
  EXPECT_GT(result.best_crowd_size, 0);
  EXPECT_GT(result.best_seconds, 0.0);
  bool best_found = false;
  for (std::size_t i = 0; i < result.crowd_sizes.size(); ++i) {
    EXPECT_GT(result.seconds[i], 0.0);
    EXPECT_GE(result.seconds[i], result.best_seconds);
    if (result.crowd_sizes[i] == result.best_crowd_size)
      best_found = true;
  }
  EXPECT_TRUE(best_found);
}

TEST(Tuner, InnerThreadsSweepProbesTheRealDriver)
{
  auto cfg = tuner_driver_config();
  cfg.crowd_size = 2;
  const auto result = tune_inner_threads(cfg, {1, 2});
  ASSERT_EQ(result.inner_sizes.size(), 2u);
  ASSERT_EQ(result.seconds.size(), 2u);
  EXPECT_GE(result.best_inner, 1);
  EXPECT_GT(result.best_seconds, 0.0);
  for (const double s : result.seconds)
    EXPECT_GT(s, 0.0);
  // Empty candidate list: derived from the machine budget, always probes at
  // least the flat schedule.
  const auto autos = tune_inner_threads(cfg, {});
  ASSERT_GE(autos.inner_sizes.size(), 1u);
  EXPECT_EQ(autos.inner_sizes.front(), 1);
}

TEST(Tuner, TuneMiniqmcRecordsOneConsumableEntry)
{
  const auto cfg = tuner_driver_config();
  Wisdom wisdom;
  const auto entry = tune_miniqmc(wisdom, cfg, /*min_seconds=*/0.002);
  EXPECT_GT(entry.tile_size, 0);
  EXPECT_GT(entry.pos_block, 0);
  EXPECT_GT(entry.crowd_size, 0);
  EXPECT_GE(entry.inner_threads, 1);
  EXPECT_GT(entry.throughput, 0.0);
  const auto hit = wisdom.lookup(miniqmc_wisdom_key(16, cfg.grid_size, cfg.num_walkers));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->crowd_size, entry.crowd_size);
  EXPECT_EQ(hit->tile_size, entry.tile_size);
  EXPECT_EQ(hit->inner_threads, entry.inner_threads);
}

TEST(Tuner, WisdomDispatchPicksTunedKnobsWithoutChangingTrajectories)
{
  // 32 orbitals so the tuned tile size (16) differs from the configured one
  // (32): the wisdom entry must re-tile the engine AND resolve the crowd
  // size, with bit-for-bit identical trajectories — tile size regroups the
  // same per-orbital arithmetic, crowd/pos_block only reorder sweeps.
  auto cfg = tuner_driver_config();
  cfg.num_splines = 32;
  cfg.tile_size = 32;
  cfg.driver = DriverMode::Crowd;

  Wisdom wisdom;
  Wisdom::Entry entry;
  entry.tile_size = 16;
  entry.pos_block = 2;
  entry.crowd_size = 2;
  entry.throughput = 1.0;
  wisdom.insert(miniqmc_wisdom_key(32, cfg.grid_size, cfg.num_walkers), entry);

  // Auto mode consumes the tuned crowd size (and tile size, pos_block)...
  auto auto_cfg = cfg;
  auto_cfg.crowd_size = -1;
  auto_cfg.wisdom = &wisdom;
  const auto tuned = run_miniqmc(auto_cfg);
  EXPECT_EQ(tuned.crowd_size_used, 2);

  // ...and the trajectory is bit-for-bit the untuned one (configured tile
  // 32, explicit crowd 2, no wisdom): tuning knobs never change the Monte
  // Carlo process.
  auto plain_cfg = cfg;
  plain_cfg.crowd_size = 2;
  const auto plain = run_miniqmc(plain_cfg);
  ASSERT_EQ(tuned.walker_accepts.size(), plain.walker_accepts.size());
  for (std::size_t i = 0; i < plain.walker_accepts.size(); ++i) {
    EXPECT_EQ(tuned.walker_accepts[i], plain.walker_accepts[i]) << "walker " << i;
    EXPECT_EQ(tuned.walker_log_det[i], plain.walker_log_det[i]) << "walker " << i;
  }

  // A missing entry leaves auto mode on the whole-population default.
  Wisdom empty;
  auto miss_cfg = cfg;
  miss_cfg.crowd_size = -1;
  miss_cfg.wisdom = &empty;
  EXPECT_EQ(run_miniqmc(miss_cfg).crowd_size_used, cfg.num_walkers);
}
