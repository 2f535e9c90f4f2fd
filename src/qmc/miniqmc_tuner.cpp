#include "qmc/miniqmc_tuner.h"

#include <algorithm>

#include "common/threading.h"
#include "common/timer.h"
#include "qmc/miniqmc_context.h"

namespace mqc {

std::string miniqmc_wisdom_key(int num_orbitals, int grid_size, int num_walkers)
{
  return Wisdom::make_key_v2("miniqmc", "float", num_orbitals, grid_size, grid_size, grid_size,
                             num_walkers);
}

namespace {

/// Shared measurement policy of the driver sweeps: re-run one candidate
/// until at least @p min_seconds of measurement accumulate (capped), score
/// the fastest run — a single probe is milliseconds at tuning scale, and
/// one shared-host scheduling hiccup must not crown the wrong candidate in
/// a persisted wisdom file.
double best_probe_seconds(const MiniQMCConfig& probe, double min_seconds)
{
  double best = 0.0, spent = 0.0;
  int reps = 0;
  do {
    const double sec = run_miniqmc(probe).seconds;
    spent += sec;
    if (reps == 0 || sec < best)
      best = sec;
    ++reps;
  } while (spent < min_seconds && reps < 16);
  return best;
}

} // namespace

CrowdTuneResult tune_crowd_size(const MiniQMCConfig& cfg, std::vector<int> candidates,
                                double min_seconds)
{
  // Resolve the walker population exactly as the driver does so candidate
  // clamping matches what the sweep will actually run.
  MiniQMCConfig probe = cfg;
  probe.driver = DriverMode::Crowd;
  probe.wisdom = nullptr; // tuning must measure the candidates, not reuse old wisdom
  const int nw = probe.num_walkers > 0 ? probe.num_walkers : max_threads();
  probe.num_walkers = nw;
  if (candidates.empty())
    candidates = default_block_candidates(nw);

  CrowdTuneResult result;
  for (int cs : candidates) {
    if (cs > nw)
      continue;
    probe.crowd_size = cs;
    const double best = best_probe_seconds(probe, min_seconds);
    result.crowd_sizes.push_back(cs);
    result.seconds.push_back(best);
    if (result.best_crowd_size == 0 || best < result.best_seconds) {
      result.best_crowd_size = cs;
      result.best_seconds = best;
    }
  }
  return result;
}

InnerTuneResult tune_inner_threads(const MiniQMCConfig& cfg, std::vector<int> candidates,
                                   double min_seconds)
{
  MiniQMCConfig probe = cfg;
  probe.driver = DriverMode::Crowd;
  probe.wisdom = nullptr; // measure the candidates, not stale wisdom
  const int nw = probe.num_walkers > 0 ? probe.num_walkers : max_threads();
  probe.num_walkers = nw;
  if (candidates.empty()) {
    // Threads the machine has left per crowd once the outer split is fixed:
    // sweep 1 (flat), then powers of two up to that budget.
    const int crowd_size =
        probe.crowd_size > 0 ? std::min(probe.crowd_size, nw) : nw;
    const int num_crowds = (nw + crowd_size - 1) / crowd_size;
    const int budget = std::max(1, max_threads() / num_crowds);
    for (int i = 1; i <= budget; i *= 2)
      candidates.push_back(i);
    if (candidates.back() != budget)
      candidates.push_back(budget);
  }

  InnerTuneResult result;
  for (int it : candidates) {
    probe.inner_threads = it;
    const double best = best_probe_seconds(probe, min_seconds);
    result.inner_sizes.push_back(it);
    result.seconds.push_back(best);
    if (result.inner_sizes.size() == 1 || best < result.best_seconds) {
      result.best_inner = it;
      result.best_seconds = best;
    }
  }
  return result;
}

Wisdom::Entry tune_miniqmc(Wisdom& wisdom, const MiniQMCConfig& cfg, double min_seconds)
{
  // The driver's own coefficient problem: same orbital count, grid, walker
  // population, and precision the sweep will use (detail::MiniQMCSystem is
  // the single source of truth for that mapping).
  const detail::MiniQMCSystem sys(cfg);

  Wisdom::Entry entry;
  // Stamp the precision family the knobs are measured under (the system's
  // RESOLVED path, after the AoS-has-no-mixed-variant fallback) — consumers
  // refuse to apply an entry tuned for the other family.
  entry.precision = sys.precision == PrecisionPath::Mixed ? 1 : 0;
  const auto tiles = default_tile_candidates(sys.norb, static_cast<int>(simd_lanes<float>));
  const auto blocks = default_block_candidates(sys.nw);
  // The sweep splits its own untiled copy of the driver's table at every
  // candidate width (the system holds only its engine's tiles); the copy
  // dies with this statement.
  const auto joint = tune_tile_block_vgh(
      *make_random_storage<detail::qmc_real>(sys.tables.front()->grid(), sys.norb, cfg.seed),
      tiles, blocks, sys.nw, min_seconds);
  entry.tile_size = joint.best_tile;
  entry.pos_block = joint.best_block;
  entry.throughput = joint.best_throughput;

  // Crowd sweep at the tuned tile size, then the nested inner-team sweep at
  // the tuned crowd size — the driver consumes all four knobs together, so
  // they are measured together (each sweep holding the previous winners).
  MiniQMCConfig probe = cfg;
  probe.tile_size = joint.best_tile;
  const auto crowd = tune_crowd_size(probe, blocks, min_seconds);
  entry.crowd_size = crowd.best_crowd_size;

  probe.crowd_size = crowd.best_crowd_size;
  const auto nested = tune_inner_threads(probe, {}, min_seconds);
  entry.inner_threads = nested.best_inner;

  wisdom.insert(miniqmc_wisdom_key(sys.norb, cfg.grid_size, sys.nw), entry);
  return entry;
}

} // namespace mqc
