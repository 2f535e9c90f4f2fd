// miniQMC driver tuning (the paper's §VI wisdom-guided production runs):
// one measurement pass records everything the driver's dispatch consumes —
// the joint (Nb, P) spline sweep AND the crowd-size sweep — as a single
// wisdom entry under miniqmc_wisdom_key().  run_miniqmc looks the entry up
// through MiniQMCConfig::wisdom: the AoSoA engine takes tile_size, the
// OrbitalSet facade takes pos_block, and the crowd driver takes crowd_size
// (when cfg.crowd_size == -1, "auto").  All three are dispatch knobs only:
// they reorder sweeps and regroup tiles but never change trajectories.
//
// Lives in qmc/ (not core/) because it probes the real driver: core knows
// nothing about the qmc layer, while this header sits next to run_miniqmc.
#ifndef MQC_QMC_MINIQMC_TUNER_H
#define MQC_QMC_MINIQMC_TUNER_H

#include <string>
#include <vector>

#include "core/tuner.h"
#include "qmc/miniqmc_driver.h"

namespace mqc {

/// The wisdom key run_miniqmc and tune_miniqmc agree on: the driver's
/// problem is identified by its orbital count, cubic grid size, and walker
/// population (kernels are float in the miniQMC sweep).
std::string miniqmc_wisdom_key(int num_orbitals, int grid_size, int num_walkers);

/// Result of a crowd-size sweep with the real crowd driver.
struct CrowdTuneResult
{
  int best_crowd_size = 0;
  double best_seconds = 0.0;
  std::vector<int> crowd_sizes;
  std::vector<double> seconds;
};

/// Probe run_miniqmc (driver := Crowd) at each candidate crowd size and
/// return the sweep.  Each candidate is re-run until at least @p min_seconds
/// of measurement accumulate (scoring the fastest run), so one scheduling
/// hiccup can't crown the wrong candidate.  Candidates larger than the
/// walker population are skipped; an empty candidate list uses
/// default_block_candidates(nw) — the crowd is the position block of the
/// lock-step driver, so the two knobs share one candidate ladder.
CrowdTuneResult tune_crowd_size(const MiniQMCConfig& cfg, std::vector<int> candidates = {},
                                double min_seconds = 0.05);

/// Result of an inner-team sweep with the real crowd driver.
struct InnerTuneResult
{
  int best_inner = 1;
  double best_seconds = 0.0;
  std::vector<int> inner_sizes;
  std::vector<double> seconds;
};

/// Probe run_miniqmc (driver := Crowd, cfg's crowd size) across inner team
/// sizes — the Opt C layer's knob — and return the sweep.  An empty
/// candidate list probes powers of two from 1 up to the machine's threads
/// when the crowd size leaves ONE crowd (always including 1, the flat
/// schedule), and just {1} when it leaves several: those sweep flat
/// whatever the knob says.  The winner is what tune_miniqmc records as the
/// wisdom entry's inner_threads.
InnerTuneResult tune_inner_threads(const MiniQMCConfig& cfg, std::vector<int> candidates = {},
                                   double min_seconds = 0.05);

/// One-stop miniQMC tuning: run the joint (Nb, P) sweep on the driver's own
/// coefficient problem, then the crowd-size sweep AT the tuned tile size,
/// then the inner-team sweep AT the tuned crowd size, and record the
/// winners as ONE wisdom entry (v4 fields) under miniqmc_wisdom_key().
/// Returns the recorded entry.
Wisdom::Entry tune_miniqmc(Wisdom& wisdom, const MiniQMCConfig& cfg, double min_seconds = 0.05);

} // namespace mqc

#endif // MQC_QMC_MINIQMC_TUNER_H
