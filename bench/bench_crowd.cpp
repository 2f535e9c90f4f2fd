// Crowd driver sweep: crowd size against the per-walker driver on the
// identical trajectory (same seeds, same walker population — the
// equivalence the test suite enforces bit-for-bit).
//
// The crowd is both the batching unit (one multi-position spline sweep per
// tile per electron move) and the threading unit (one crowd per thread), so
// on a fixed walker population crowd_size trades thread count against batch
// depth: crowd_size = 1 reproduces the per-walker schedule, crowd_size = Nw
// runs one thread with the deepest tile-resident batches.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "common/threading.h"
#include "common/timer.h"
#include "determinant/dirac_determinant.h"
#include "qmc/miniqmc_driver.h"
#include "bench_common.h"

namespace {

using namespace mqc;

/// Microbench for the Sherman-Morrison determinant update at production N:
/// time M accepted column updates (ratio + accept, each a sweep of the N^2
/// inverse) and report microseconds per update.
double us_per_update(int n, int updates, std::uint64_t seed)
{
  Xoshiro256 rng(seed);
  Matrix<double> a(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a(i, j) = rng.uniform(-0.5, 0.5) + (i == j ? 4.0 : 0.0); // well conditioned
  DiracDeterminant det;
  if (!det.build(a))
    return 0.0;

  // Pre-generate every update column OUTSIDE the timed region, so only the
  // determinant arithmetic is timed.
  std::vector<std::vector<double>> us(static_cast<std::size_t>(updates));
  for (int m = 0; m < updates; ++m) {
    const int col = m % n;
    auto& u = us[static_cast<std::size_t>(m)];
    u.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      u[static_cast<std::size_t>(i)] = rng.uniform(-0.5, 0.5) + (i == col ? 4.0 : 0.0);
  }

  Stopwatch watch;
  for (int m = 0; m < updates; ++m) {
    const int col = m % n;
    const double* u = us[static_cast<std::size_t>(m)].data();
    (void)det.ratio(u, col);
    det.accept_move(u, col);
  }
  return watch.elapsed() * 1e6 / updates;
}

} // namespace

int main(int argc, char** argv)
{
  using namespace mqc;
  auto json = bench::JsonReporter::from_args(argc, argv, "crowd");
  const char* env = std::getenv("MQC_BENCH_SCALE");
  const bool full = env && std::string(env) == "full";

  MiniQMCConfig cfg;
  cfg.supercell = full ? std::array<int, 3>{4, 4, 1} : std::array<int, 3>{3, 3, 1};
  cfg.grid_size = full ? 48 : 32;
  cfg.steps = full ? 4 : 2;
  cfg.tile_size = 64;
  cfg.spo = SpoLayout::AoSoA;
  cfg.optimized_dt_jastrow = true;
  cfg.num_walkers = std::max(8, max_threads());

  // Best of three runs per configuration: section times are milliseconds and
  // shared-VM steal time can inflate any single run.
  auto best_run = [](MiniQMCConfig c) {
    MiniQMCResult best = run_miniqmc(c);
    for (int attempt = 1; attempt < 3; ++attempt) {
      auto r = run_miniqmc(c);
      if (r.seconds < best.seconds)
        best = std::move(r);
    }
    return best;
  };

  std::vector<int> crowd_sizes{1, 2, 4, cfg.num_walkers};
  crowd_sizes.erase(std::remove_if(crowd_sizes.begin(), crowd_sizes.end(),
                                   [&](int cs) { return cs > cfg.num_walkers; }),
                    crowd_sizes.end());
  crowd_sizes.erase(std::unique(crowd_sizes.begin(), crowd_sizes.end()), crowd_sizes.end());

  print_banner(std::cout, "Crowd driver: crowd size");
  std::cout << "system: graphite " << cfg.supercell[0] << 'x' << cfg.supercell[1] << 'x'
            << cfg.supercell[2] << ", AoSoA tiles of " << cfg.tile_size << ", "
            << cfg.num_walkers << " walkers, " << cfg.steps << " steps\n"
            << "baseline: the per-walker driver (one walker per thread)\n\n";

  // The row names keep the `delay0` tag of the retired delay-rank columns so
  // they stay comparable with the committed baselines.
  TablePrinter tp({"crowd size", "total (s)", "B-splines (s)", "speedup vs per-walker"});
  MiniQMCConfig base_cfg = cfg;
  base_cfg.driver = DriverMode::PerWalker;
  const auto base = best_run(base_cfg);
  tp.add_row({"per-walker", TablePrinter::cell(base.seconds, 4),
              TablePrinter::cell(base.profile.seconds(kSectionBspline), 4),
              TablePrinter::cell(1.0, 2)});
  json.add("perwalker_delay0_seconds", base.seconds, "s");
  for (int cs : crowd_sizes) {
    MiniQMCConfig ccfg = cfg;
    ccfg.driver = DriverMode::Crowd;
    ccfg.crowd_size = cs;
    const auto crowd = best_run(ccfg);
    const double speedup = crowd.seconds > 0 ? base.seconds / crowd.seconds : 0.0;
    tp.add_row({TablePrinter::cell(cs), TablePrinter::cell(crowd.seconds, 4),
                TablePrinter::cell(crowd.profile.seconds(kSectionBspline), 4),
                TablePrinter::cell(speedup, 2)});
    json.add("crowd" + std::to_string(cs) + "_delay0_seconds", crowd.seconds, "s");
    json.add("crowd" + std::to_string(cs) + "_delay0_speedup", speedup, "x");
  }
  tp.print(std::cout);
  std::cout << "\nReading guide: larger crowds deepen the per-tile position batch (coefficient\n"
               "slices stay cache-resident across the crowd) at the cost of thread-level\n"
               "parallelism; on many-core hosts mid-size crowds win, on few-core hosts the\n"
               "deepest crowds do.\n";

  // ---- nested vs flat: does the inner team win back the idle cores? ------
  // One deep crowd (the best batching shape) leaves every core but one idle
  // under the flat schedule; the nested partition hands the leftovers to the
  // crowd's facade sweeps as an inner team.  Paired runs on the identical
  // trajectory; the partition that actually engaged is printed and emitted
  // as --json rows (nested_inner_threads > 1 proves the nested path ran,
  // not a serialized fallback — CI consumes exactly that).
  print_banner(std::cout, "Nested partition vs flat: one deep crowd x inner team");
  {
    MiniQMCConfig ncfg = cfg;
    ncfg.driver = DriverMode::Crowd;
    ncfg.crowd_size = 0; // one crowd spanning the population
    ncfg.inner_threads = 1;
    const auto flat = best_run(ncfg);
    ncfg.inner_threads = 0; // auto: the topology partition
    const auto nested = best_run(ncfg);
    const double speedup = nested.seconds > 0 ? flat.seconds / nested.seconds : 0.0;
    TablePrinter np({"schedule", "partition", "team path", "total (s)", "B-splines (s)",
                     "speedup vs flat"});
    auto partition_cell = [](const MiniQMCResult& r) {
      return std::to_string(r.outer_threads_used) + "x" + std::to_string(r.inner_threads_used);
    };
    np.add_row({"flat (inner=1)", partition_cell(flat), team_path_name(flat.team_path),
                TablePrinter::cell(flat.seconds, 4),
                TablePrinter::cell(flat.profile.seconds(kSectionBspline), 4),
                TablePrinter::cell(1.0, 2)});
    np.add_row({"nested (inner=auto)", partition_cell(nested), team_path_name(nested.team_path),
                TablePrinter::cell(nested.seconds, 4),
                TablePrinter::cell(nested.profile.seconds(kSectionBspline), 4),
                TablePrinter::cell(speedup, 2)});
    np.print(std::cout);
    std::cout << "\nReading guide: on a multi-core host the auto partition resolves an inner\n"
                 "team > 1 (nested_inner_threads row) and the nested schedule re-occupies the\n"
                 "cores the deep crowd left idle; on a single-core host it resolves to 1 and\n"
                 "both rows coincide.  Trajectories are bit-for-bit identical either way.\n";
    json.add("nested_flat_seconds", flat.seconds, "s");
    json.add("nested_nested_seconds", nested.seconds, "s");
    json.add("nested_vs_flat_speedup", speedup, "x");
    json.add("nested_inner_threads", nested.inner_threads_used, "");
    json.add("nested_outer_threads", nested.outer_threads_used, "");
    json.add("nested_team_forked", nested.team_path == TeamPath::NestedInner ? 1.0 : 0.0, "");
  }

  // ---- checkpoint cadence: interval=1 must stay within noise of final-only
  // Paired runs on the identical trajectory (snapshotting is an observer):
  // interval=0 writes only the end-of-run snapshot, interval=1 writes at
  // EVERY step boundary.  The ratio row is gated in CI — it would crater if
  // per-step snapshots dragged walker-invariant work (scratch/pointer-table
  // rebuilds) back into the epoch loop, which is exactly the regression this
  // pair exists to catch.
  print_banner(std::cout, "Checkpoint cadence: per-step snapshots vs final-only");
  {
    const std::string ckpt_path = (std::filesystem::temp_directory_path() /
                                   "mqc_bench_crowd_ckpt.tmp").string();
    MiniQMCConfig kcfg = cfg;
    kcfg.driver = DriverMode::Crowd;
    kcfg.crowd_size = 4;
    kcfg.checkpoint_path = ckpt_path;
    kcfg.checkpoint_interval = 0; // end-of-run snapshot only
    const auto final_only = best_run(kcfg);
    kcfg.checkpoint_interval = 1; // snapshot at every step boundary
    const auto every_step = best_run(kcfg);
    std::remove(ckpt_path.c_str());
    std::remove((ckpt_path + ".prev").c_str());
    const double ratio = every_step.seconds > 0 ? final_only.seconds / every_step.seconds : 0.0;
    TablePrinter kp({"cadence", "snapshots", "total (s)", "vs final-only"});
    kp.add_row({"final-only (interval=0)", TablePrinter::cell(final_only.checkpoints_written),
                TablePrinter::cell(final_only.seconds, 4), TablePrinter::cell(1.0, 2)});
    kp.add_row({"every step (interval=1)", TablePrinter::cell(every_step.checkpoints_written),
                TablePrinter::cell(every_step.seconds, 4), TablePrinter::cell(ratio, 2)});
    kp.print(std::cout);
    std::cout << "\nReading guide: the epoch loop re-enters once per step at interval=1; the\n"
                 "walker-invariant crowd scratch (gathered pointer tables) is built once at\n"
                 "init, so the only added cost is serialization + the file write itself.\n";
    json.add("ckpt_interval0_seconds", final_only.seconds, "s");
    json.add("ckpt_interval1_seconds", every_step.seconds, "s");
    json.add("ckpt_interval1_vs_final_ratio", ratio, "x");
  }

  // ---- determinant updates at production N ---------------------------------
  // Isolated from the driver so production N is affordable: microseconds per
  // accepted column update.  The `k1` row names keep the Sherman-Morrison
  // column of the retired delay-rank table.
  print_banner(std::cout, "Determinant updates: us/update, Sherman-Morrison");
  const std::vector<int> det_sizes = full ? std::vector<int>{256, 512, 1024}
                                          : std::vector<int>{128, 256, 512};
  const int updates = 96;
  TablePrinter dt({"N", "us/update"});
  for (int n : det_sizes) {
    const double us = us_per_update(n, updates, 99 + static_cast<std::uint64_t>(n));
    dt.add_row({TablePrinter::cell(n), TablePrinter::cell(us, 1)});
    json.add("det_n" + std::to_string(n) + "_k1_us_per_update", us, "us");
  }
  dt.print(std::cout);
  std::cout << "\nReading guide: each accept sweeps the N^2 inverse once (rank-1 update), so\n"
               "the cost grows as N^2 until the inverse falls out of cache.\n";
  if (!json.write())
    std::cout << "warning: could not write " << json.path() << "\n";
  return 0;
}
