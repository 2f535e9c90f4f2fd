// DMC branching driver bench: dynamic-population throughput and the cost of
// the branching machinery itself.
//
// Two questions with CI-gated answers:
//   * walkers/sec vs population size — how does full-DMC sweep throughput
//     scale as the target population grows (the per-generation work is
//     walkers * electrons; the branch step is O(walkers))?
//   * branch-step overhead — what does the DMC scaffolding (drift VGL
//     batches, weight updates, clone/kill, re-blocking) cost over the
//     identical trajectory volume swept by the fixed-population replay
//     oracle?  The ratio is replay/full of generation throughput: near 1
//     means the drift+branch machinery rides along for ~free; it is the
//     CI-gated "x" row because both sides run in this process on the same
//     host (host-independent evidence, like the other paired ratios).
//
// Replay-vs-VMC bit-equality and full-DMC determinism are enforced by
// tests/test_dmc.cpp; these rows measure only time.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/threading.h"
#include "common/timer.h"
#include "qmc/miniqmc_driver.h"
#include "bench_common.h"

namespace {

using namespace mqc;

/// Best-of-three run; returns seconds and (via out) the final result.
double best_run_seconds(const MiniQMCConfig& cfg, MiniQMCResult& out)
{
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Stopwatch watch;
    MiniQMCResult r = run_miniqmc(cfg);
    const double s = watch.elapsed();
    if (attempt == 0 || s < best) {
      best = s;
      out = std::move(r);
    }
  }
  return best;
}

/// Walker-generations swept per second: every generation sweeps the CURRENT
/// population, so the work volume is the population-trace sum, not
/// generations * initial walkers.
double walker_gens_per_second(const MiniQMCResult& r, double seconds)
{
  double swept = 0.0;
  for (int pop : r.dmc_population)
    swept += pop;
  return seconds > 0 ? swept / seconds : 0.0;
}

} // namespace

int main(int argc, char** argv)
{
  using namespace mqc;
  auto json = bench::JsonReporter::from_args(argc, argv, "dmc");
  const char* env = std::getenv("MQC_BENCH_SCALE");
  const bool full = env && std::string(env) == "full";

  MiniQMCConfig base;
  base.supercell = full ? std::array<int, 3>{3, 3, 1} : std::array<int, 3>{2, 2, 1};
  base.grid_size = full ? 32 : 24;
  base.tile_size = 64;
  base.spo = SpoLayout::AoSoA;
  base.optimized_dt_jastrow = true;
  base.driver = DriverMode::DMC;
  base.dmc_generations = full ? 6 : 4;
  base.dmc_gen_steps = 1;
  base.dmc_tau = 0.4;

  // ---- walkers/sec vs population size ------------------------------------
  print_banner(std::cout, "DMC branching driver: throughput vs target population");
  std::cout << "system: graphite " << base.supercell[0] << 'x' << base.supercell[1] << 'x'
            << base.supercell[2] << ", " << base.dmc_generations << " generations x "
            << base.dmc_gen_steps << " step(s)\n\n";

  TablePrinter tp({"walkers", "total (s)", "walker-gens/s", "births", "deaths"});
  const std::vector<int> populations = full ? std::vector<int>{8, 16, 32}
                                            : std::vector<int>{4, 8, 16};
  for (int nw : populations) {
    MiniQMCConfig cfg = base;
    cfg.num_walkers = nw;
    MiniQMCResult r;
    const double s = best_run_seconds(cfg, r);
    const double wps = walker_gens_per_second(r, s);
    tp.add_row({TablePrinter::cell(nw), TablePrinter::cell(s, 4), TablePrinter::cell(wps, 1),
                TablePrinter::cell(static_cast<int>(r.dmc_births)),
                TablePrinter::cell(static_cast<int>(r.dmc_deaths))});
    json.add("dmc_walkers" + std::to_string(nw) + "_seconds", s, "s");
    json.add("dmc_walkers" + std::to_string(nw) + "_walker_gens_per_second", wps, "walkers/s");
  }
  tp.print(std::cout);

  // ---- branch-step overhead: full DMC vs fixed-population replay ---------
  // Same config, same generation budget; replay pins the population and
  // skips drift/weights/branching entirely, so full/replay throughput is
  // the cost of the branching machinery per swept walker-generation.
  print_banner(std::cout, "DMC: branching machinery overhead vs replay oracle");
  {
    MiniQMCConfig cfg = base;
    cfg.num_walkers = populations.back();
    MiniQMCResult rfull;
    const double t_full = best_run_seconds(cfg, rfull);

    MiniQMCConfig rep = cfg;
    rep.dmc_replay = true;
    MiniQMCResult rrep;
    const double t_rep = best_run_seconds(rep, rrep);

    const double full_wps = walker_gens_per_second(rfull, t_full);
    const double rep_wps = walker_gens_per_second(rrep, t_rep);
    // Throughput ratio full/replay: how much of the replay sweep rate the
    // full driver retains with drift + branching enabled.
    const double retained = rep_wps > 0 ? full_wps / rep_wps : 0.0;

    TablePrinter op({"mode", "total (s)", "walker-gens/s", "throughput vs replay"});
    op.add_row({"replay oracle (fixed pop)", TablePrinter::cell(t_rep, 4),
                TablePrinter::cell(rep_wps, 1), TablePrinter::cell(1.0, 2)});
    op.add_row({"full DMC (drift+branch)", TablePrinter::cell(t_full, 4),
                TablePrinter::cell(full_wps, 1), TablePrinter::cell(retained, 2)});
    op.print(std::cout);
    std::cout << "\nReading guide: the replay row runs the identical crowd-sweep body with the\n"
                 "population pinned; the full row adds one VGL batch per electron move (drift)\n"
                 "plus the serial weight/branch/re-block step per generation, so somewhat\n"
                 "below 1.0 is expected (~0.9 measured; the drift VGL is cheap next to the\n"
                 "VGH + measurement batches).  The gate only fires if full DMC drops more\n"
                 "than 25% below its committed baseline while under 1.0 - i.e. if the\n"
                 "machinery gets anomalously slower, not because drift work exists.\n";
    json.add("dmc_full_seconds", t_full, "s");
    json.add("dmc_replay_seconds", t_rep, "s");
    json.add("dmc_throughput_retained_vs_replay", retained, "x");
  }

  if (!json.write())
    std::cout << "warning: could not write " << json.path() << "\n";
  return 0;
}
