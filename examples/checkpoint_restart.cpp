// Domain scenario: crash-consistent checkpoint/restart with fault injection.
//
// Runs a miniQMC sweep with periodic snapshots (qmc/checkpoint.h) and prints
// machine-parseable restart provenance + per-walker trajectory fingerprints.
// tools/fault_harness.py drives this binary through kill -> resume ->
// fingerprint-compare and corrupt -> detect -> fall-back loops; the CI
// fault-injection job fails when an injected fault goes undetected.
//
//   ./examples/checkpoint_restart --ckpt run.ckpt --interval 2 --steps 6
//   ./examples/checkpoint_restart --ckpt run.ckpt --resume --steps 6
//   ./examples/checkpoint_restart --ckpt run.ckpt --interval 2 --steps 6
//       --fault abort@4,corrupt@walker0
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "qmc/miniqmc_driver.h"
#include "qmc/walker_population.h"

namespace {

void usage(const char* prog)
{
  std::printf(
      "usage: %s [options]\n"
      "  --driver per-walker|crowd|dmc  sweep driver (default per-walker)\n"
      "  --layout aos|soa|aosoa      spline layout (default soa, optimized tables)\n"
      "  --precision native|mixed    coefficient precision path (default native;\n"
      "                              mixed = SP tables, DP accumulation)\n"
      "  --walkers N                 walker count (default 4)\n"
      "  --steps N                   Monte Carlo sweeps (default 6)\n"
      "  --crowd-size N              crowd driver crowd size (default whole population)\n"
      "  --seed S                    rng seed\n"
      "  --ckpt PATH                 checkpoint file (enables snapshots)\n"
      "  --interval N                steps between snapshots (default 2)\n"
      "  --resume                    restore from --ckpt before sweeping\n"
      "  --fault SPEC                fault-injection spec (see qmc/checkpoint.h)\n"
      "  --shards N                  run as a resident WalkerPopulation with N\n"
      "                              shards (0 = plain run_miniqmc, default)\n"
      "  --dmc N                     DMC driver: N branching generations\n"
      "                              (implies --driver dmc; --steps is ignored)\n"
      "  --dmc-gen-steps N           sweeps per generation (default 1)\n"
      "  --dmc-target N              target population (default = --walkers)\n"
      "  --dmc-tau T                 branching time step (default 0.4 here)\n"
      "  --dmc-replay                fixed-population replay oracle mode\n",
      prog);
}

} // namespace

int main(int argc, char** argv)
{
  using namespace mqc;
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 16;
  cfg.spo = SpoLayout::SoA;
  cfg.optimized_dt_jastrow = true;
  cfg.num_walkers = 4;
  cfg.steps = 6;
  cfg.checkpoint_interval = 2;
  // An aggressive-enough default branching time step that harness-scale DMC
  // runs (4 walkers, a handful of generations) actually see birth/death.
  cfg.dmc_tau = 0.4;
  int shards = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--driver") {
      const std::string v = next();
      cfg.driver = v == "crowd"
                       ? DriverMode::Crowd
                       : (v == "dmc" ? DriverMode::DMC : DriverMode::PerWalker);
    } else if (arg == "--layout") {
      const std::string v = next();
      if (v == "aos") {
        cfg.spo = SpoLayout::AoS;
        cfg.optimized_dt_jastrow = false;
      } else if (v == "aosoa") {
        cfg.spo = SpoLayout::AoSoA;
        cfg.optimized_dt_jastrow = true;
      } else {
        cfg.spo = SpoLayout::SoA;
        cfg.optimized_dt_jastrow = true;
      }
    } else if (arg == "--precision") {
      const std::string v = next();
      cfg.precision_path = v == "mixed" ? PrecisionPath::Mixed : PrecisionPath::Native;
    } else if (arg == "--walkers") {
      cfg.num_walkers = std::atoi(next());
    } else if (arg == "--steps") {
      cfg.steps = std::atoi(next());
    } else if (arg == "--crowd-size") {
      cfg.crowd_size = std::atoi(next());
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--ckpt") {
      cfg.checkpoint_path = next();
    } else if (arg == "--interval") {
      cfg.checkpoint_interval = std::atoi(next());
    } else if (arg == "--resume") {
      cfg.resume = true;
    } else if (arg == "--fault") {
      cfg.fault_inject = next();
    } else if (arg == "--shards") {
      shards = std::atoi(next());
    } else if (arg == "--dmc") {
      cfg.driver = DriverMode::DMC;
      cfg.dmc_generations = std::atoi(next());
    } else if (arg == "--dmc-gen-steps") {
      cfg.dmc_gen_steps = std::atoi(next());
    } else if (arg == "--dmc-target") {
      cfg.dmc_target_walkers = std::atoi(next());
    } else if (arg == "--dmc-tau") {
      cfg.dmc_tau = std::atof(next());
    } else if (arg == "--dmc-replay") {
      cfg.dmc_replay = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  MiniQMCResult res;
  if (shards > 0) {
    // Resident-service path: same config, same snapshot file, same output —
    // the harness compares this against plain run_miniqmc bit-for-bit and
    // kills/resumes it across different shard counts.
    PopulationConfig pcfg;
    pcfg.qmc = cfg;
    pcfg.num_shards = shards;
    WalkerPopulation pop(pcfg);
    pop.run_to_step(cfg.steps);
    res = pop.result();
  } else {
    res = run_miniqmc(cfg);
  }

  // Machine-parseable restart provenance + fingerprints (fault_harness.py).
  std::printf("resumed_from_step=%d\n", res.resumed_from_step);
  std::printf("resume_fallback=%d\n", res.resume_fallback_used ? 1 : 0);
  std::printf("resume_error=%s\n", res.resume_error.c_str());
  std::printf("checkpoints_written=%d\n", res.checkpoints_written);
  if (cfg.driver == DriverMode::DMC) {
    // Branching provenance: population trace + counters + trial energy (raw
    // bits, same discipline as the fingerprints).  The harness asserts a
    // resumed run reproduces ALL of it, not just the walker fingerprints.
    std::string trace;
    for (const int p : res.dmc_population) {
      if (!trace.empty())
        trace += ',';
      trace += std::to_string(p);
    }
    std::printf("dmc_population=%s\n", trace.c_str());
    std::printf("dmc_births=%" PRIu64 "\n", res.dmc_births);
    std::printf("dmc_deaths=%" PRIu64 "\n", res.dmc_deaths);
    std::uint64_t et_bits = 0;
    std::memcpy(&et_bits, &res.dmc_trial_energy, sizeof et_bits);
    std::printf("dmc_trial_energy=%016" PRIx64 "\n", et_bits);
  }
  for (std::size_t w = 0; w < res.walker_accepts.size(); ++w) {
    // log-det as raw bits: the harness compares trajectories bit-for-bit,
    // and a decimal round-trip would hide 1-ulp divergence.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &res.walker_log_det[w], sizeof bits);
    std::printf("fingerprint %zu %zu %016" PRIx64 "\n", w, res.walker_accepts[w], bits);
  }
  return 0;
}
