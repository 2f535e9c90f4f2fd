// WalkerPopulation service bench: shard locality and job-queue throughput.
//
// Two questions with CI-gated answers:
//   * shard locality — does sweeping a resident population through
//     socket-sharded, first-touch-replicated coefficient tables cost
//     anything vs the single-shard layout?  (On a one-socket CI host the
//     shapes coincide and the ratio sits at ~1; on a multi-socket host the
//     sharded layout should win, never lose.)
//   * job-queue throughput — does multiplexing independent jobs onto the
//     resident engines through the async queue (packed crowd sweeps,
//     per-shard workers) beat serving them one at a time?
//
// Trajectories are bit-for-bit identical across every shape here (the test
// suite enforces it); these rows measure only time.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/threading.h"
#include "common/timer.h"
#include "qmc/job_queue.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/walker_population.h"
#include "bench_common.h"

namespace {

using namespace mqc;

/// Best-of-three population sweep: build once, re-run the same step window
/// on a fresh population per attempt (the population owns state, so reuse
/// would sweep different steps).
double best_population_seconds(const MiniQMCConfig& cfg, int shards, int steps)
{
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    PopulationConfig pcfg;
    pcfg.qmc = cfg;
    pcfg.num_shards = shards;
    WalkerPopulation pop(pcfg);
    Stopwatch watch;
    pop.run_to_step(steps);
    const double s = watch.elapsed();
    if (attempt == 0 || s < best)
      best = s;
  }
  return best;
}

} // namespace

int main(int argc, char** argv)
{
  using namespace mqc;
  auto json = bench::JsonReporter::from_args(argc, argv, "population");
  const char* env = std::getenv("MQC_BENCH_SCALE");
  const bool full = env && std::string(env) == "full";

  MiniQMCConfig cfg;
  cfg.supercell = full ? std::array<int, 3>{4, 4, 1} : std::array<int, 3>{3, 3, 1};
  cfg.grid_size = full ? 48 : 32;
  cfg.tile_size = 64;
  cfg.spo = SpoLayout::AoSoA;
  cfg.optimized_dt_jastrow = true;
  cfg.num_walkers = std::max(8, max_threads());
  cfg.steps = 0; // populations advance by explicit targets
  const int steps = full ? 4 : 2;

  const int auto_shards = resolve_shard_count(0);

  // ---- shard locality: single-shard vs one-shard-per-socket ---------------
  print_banner(std::cout, "WalkerPopulation: shard locality (first-touch replicas)");
  std::cout << "system: graphite " << cfg.supercell[0] << 'x' << cfg.supercell[1] << 'x'
            << cfg.supercell[2] << ", " << cfg.num_walkers << " walkers, " << steps
            << " steps, auto shard count " << auto_shards << "\n\n";

  const double t1 = best_population_seconds(cfg, 1, steps);
  const double tn = best_population_seconds(cfg, auto_shards, steps);
  const double locality = tn > 0 ? t1 / tn : 0.0;
  TablePrinter tp({"shards", "total (s)", "speedup vs 1 shard"});
  tp.add_row({"1", TablePrinter::cell(t1, 4), TablePrinter::cell(1.0, 2)});
  tp.add_row({TablePrinter::cell(auto_shards), TablePrinter::cell(tn, 4),
              TablePrinter::cell(locality, 2)});
  tp.print(std::cout);
  std::cout << "\nReading guide: every shard sweeps its walkers against its socket's copy\n"
               "of the coefficient table; on a single-socket host both rows share one shard\n"
               "layout in effect and the ratio is noise around 1.\n";
  json.add("population_shard1_seconds", t1, "s");
  json.add("population_shardN_seconds", tn, "s");
  json.add("population_num_shards", auto_shards, "");
  json.add("population_shard_locality_speedup", locality, "x");

  // ---- job-queue throughput: async packed service vs one-at-a-time -------
  // The same 16 jobs (mixed step budgets, distinct seeds) served two ways on
  // one resident population: strictly sequentially (submit -> wait each),
  // and fully async (submit all -> drain) with packing enabled.
  print_banner(std::cout, "JobQueue: async packed service vs sequential submission");
  {
    PopulationConfig pcfg;
    pcfg.qmc = cfg;
    WalkerPopulation pop(pcfg);
    pop.run_to_step(1); // warm the resident engines before timing

    std::vector<JobSpec> jobs;
    const int num_jobs = 16;
    for (int i = 0; i < num_jobs; ++i) {
      JobSpec spec;
      spec.num_walkers = 2;
      spec.steps = 1 + i % 3;
      spec.seed = static_cast<std::uint64_t>(1000 + i);
      jobs.push_back(spec);
    }

    double seq_best = 0.0, async_best = 0.0;
    std::size_t packed = 0, completed = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      {
        JobQueue seq_queue(pop, /*max_pack=*/1);
        Stopwatch watch;
        for (const JobSpec& spec : jobs)
          (void)seq_queue.wait(seq_queue.submit(spec));
        const double s = watch.elapsed();
        if (attempt == 0 || s < seq_best)
          seq_best = s;
      }
      {
        JobQueue queue(pop, /*max_pack=*/4);
        Stopwatch watch;
        for (const JobSpec& spec : jobs)
          (void)queue.submit(spec);
        (void)queue.drain();
        const double s = watch.elapsed();
        if (attempt == 0 || s < async_best)
          async_best = s;
        packed = queue.packed_batches();
        completed = queue.completed();
      }
    }
    const double speedup = async_best > 0 ? seq_best / async_best : 0.0;
    const double throughput = async_best > 0 ? num_jobs / async_best : 0.0;
    const double packing = packed > 0 ? static_cast<double>(completed) / packed : 0.0;
    TablePrinter jp({"mode", "jobs", "total (s)", "jobs/s", "speedup"});
    jp.add_row({"sequential (wait each)", TablePrinter::cell(num_jobs),
                TablePrinter::cell(seq_best, 4),
                TablePrinter::cell(seq_best > 0 ? num_jobs / seq_best : 0.0, 1),
                TablePrinter::cell(1.0, 2)});
    jp.add_row({"async packed (drain)", TablePrinter::cell(num_jobs),
                TablePrinter::cell(async_best, 4), TablePrinter::cell(throughput, 1),
                TablePrinter::cell(speedup, 2)});
    jp.print(std::cout);
    std::cout << "\nReading guide: the async path overlaps jobs across the per-shard workers\n"
               << "and fuses up to 4 queued jobs into one crowd sweep (measured packing\n"
               << "factor " << packing << " jobs/sweep), so the spline tables stream once per\n"
               << "move across packed jobs.  Sequential submission forfeits both effects.\n";
    json.add("jobqueue_jobs_per_second", throughput, "jobs/s");
    json.add("jobqueue_seq_seconds", seq_best, "s");
    json.add("jobqueue_async_seconds", async_best, "s");
    json.add("jobqueue_vs_sequential_speedup", speedup, "x");
    json.add("jobqueue_packing_factor", packing, "");
  }

  if (!json.write())
    std::cout << "warning: could not write " << json.path() << "\n";
  return 0;
}
