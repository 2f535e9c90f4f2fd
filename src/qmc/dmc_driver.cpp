// The DMC branching driver: dynamic walker populations with weight-window
// population control, full-state walker cloning, and contiguous crowd/shard
// re-blocking after every branch step.  See dmc_driver.h for the design
// contract.  The driver owns a PopulationCore (crowd_sweep.h) and keeps only
// its generation loop and branch step: generations sweep through the one
// crowd-sweep body with the Langevin drift as its proposal-centre argument —
// or with none in replay mode, which is what makes the fixed-population
// replay oracle bit-for-bit a VMC crowd run.
#include "qmc/dmc_driver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "qmc/crowd_sweep.h"

namespace mqc::detail {

namespace {

/// Deterministic local-energy proxy: the (negated, per-electron) log
/// magnitude of the Slater part, read from the const incremental log-det
/// accessors — cheap, configuration-dependent, and identical across every
/// crowd/shard decomposition, which is all the branching dynamics need from
/// it in a kernel driver (no Hamiltonian is evaluated here).
double dmc_local_energy(const WalkerState& w, int nel)
{
  return -(w.det_up.log_det() + w.det_dn.log_det()) / static_cast<double>(nel);
}

} // namespace

MiniQMCResult run_miniqmc_dmc(const MiniQMCConfig& cfg)
{
  // The population every driver owns: shard systems over first-touch
  // replicas, built once and never moved; branch steps change only the
  // walker vector, which reblock() re-splits across the same shards.
  PopulationCore pop(cfg, 0);
  const MiniQMCSystem& sys0 = pop.shards.master();
  std::vector<WalkerState>& walkers = pop.walkers;

  // Effective branching knobs (clamped here, hashed raw in the config hash).
  const int generations = std::max(0, cfg.dmc_generations);
  const int gen_steps = std::max(1, cfg.dmc_gen_steps);
  const int total_steps = generations * gen_steps;
  const int target = cfg.dmc_target_walkers > 0 ? cfg.dmc_target_walkers : sys0.nw;
  const int pop_cap = 4 * target;
  const int max_branch = std::max(1, cfg.dmc_max_branch);
  const double wmin = std::min(cfg.dmc_weight_min, cfg.dmc_weight_max);
  const double wmax = std::max(cfg.dmc_weight_min, cfg.dmc_weight_max);
  const double gen_tau = cfg.dmc_tau * gen_steps;
  const bool replay = cfg.dmc_replay;
  const double drift_tau = replay ? 0.0 : cfg.dmc_tau; // the sweep's proposal-centre policy

  pop.status.dmc_shards_used = pop.shards.size();
  pop.status.dmc_population.reserve(static_cast<std::size_t>(generations));

  // Resume: the population takes the snapshot's size, and the branching
  // provenance (generation, E_T, counters, weights) lands in st.
  DmcRunState st;
  st.weights.assign(walkers.size(), 1.0);
  const int resumed_step = pop.resume(&st);
  int gen = st.generation;
  assert(resumed_step == gen * gen_steps);

  // Trial-energy seed for a fresh full-DMC start: the mean local-energy
  // proxy of the initial population (deterministic — no rng draws).  A
  // resumed run restored E_T from the snapshot instead.
  if (!replay && resumed_step == 0 && !walkers.empty()) {
    double sum = 0.0;
    for (const WalkerState& w : walkers)
      sum += dmc_local_energy(w, sys0.nel);
    st.trial_energy = sum / static_cast<double>(walkers.size());
  }

  // ---- the generation loop ------------------------------------------------
  // Each generation: one team region sweeps every crowd gen_steps steps
  // (drift_tau = 0 in replay: the VMC body), then — serial, outside any
  // region — the branch step, re-blocking, and the checkpoint boundary.
  Stopwatch watch;
  const int entry_gen = gen;
  for (; gen < generations; ++gen) {
    const int step_end = (gen + 1) * gen_steps;
    pop.sweep(gen * gen_steps, step_end, drift_tau);

    // ---- branch step (full DMC only): weights -> multiplicities ----------
    // Serial, in walker-id order, on the walkers' own streams — identical
    // under every crowd/shard decomposition.
    if (!replay) {
      const int n = static_cast<int>(walkers.size());
      for (int i = 0; i < n; ++i) {
        const double e_l = dmc_local_energy(walkers[static_cast<std::size_t>(i)], sys0.nel);
        double& wgt = st.weights[static_cast<std::size_t>(i)];
        wgt *= std::exp(-gen_tau * (e_l - st.trial_energy));
        wgt = std::min(wmax, std::max(wmin, wgt));
      }
      std::vector<WalkerState> next;
      std::vector<double> next_w;
      next.reserve(walkers.size());
      next_w.reserve(walkers.size());
      for (int i = 0; i < n; ++i) {
        WalkerState& parent = walkers[static_cast<std::size_t>(i)];
        const double wgt = st.weights[static_cast<std::size_t>(i)];
        int m = static_cast<int>(wgt + parent.rng.uniform()); // stochastic rounding
        m = std::min(m, max_branch);
        m = std::min(m, pop_cap - static_cast<int>(next.size())); // deterministic ceiling
        if (m <= 0) {
          ++st.deaths;
          continue;
        }
        const double wchild = wgt / m;
        // Children are cloned (and their streams split off) BEFORE the
        // parent moves: each clone is a pure function of the parent's state
        // at this boundary, and the continuation keeps the advanced stream.
        std::vector<WalkerState> kids;
        for (int k = 1; k < m; ++k) {
          WalkerState child;
          init_walker_shell(child, sys0, cfg);
          clone_walker_state(child, parent, sys0, cfg);
          child.rng = parent.rng.split();
          kids.push_back(std::move(child));
          ++st.births;
        }
        next.push_back(std::move(parent));
        next_w.push_back(wchild);
        for (auto& kid : kids) {
          next.push_back(std::move(kid));
          next_w.push_back(wchild);
        }
      }
      if (next.empty()) {
        // Total extinction would deadlock the feedback loop; keep the
        // highest-weight walker (lowest id on ties) as the sole survivor.
        int best = 0;
        for (int i = 1; i < n; ++i)
          if (st.weights[static_cast<std::size_t>(i)] > st.weights[static_cast<std::size_t>(best)])
            best = i;
        next.push_back(std::move(walkers[static_cast<std::size_t>(best)]));
        next_w.push_back(st.weights[static_cast<std::size_t>(best)]);
        st.deaths -= 1; // the survivor was counted dead above
      }
      walkers = std::move(next);
      st.weights = std::move(next_w);
      st.trial_energy -=
          cfg.dmc_feedback *
          std::log(static_cast<double>(walkers.size()) / static_cast<double>(target));
      pop.reblock();
    }
    st.generation = gen + 1;
    pop.status.dmc_population.push_back(static_cast<int>(walkers.size()));
    pop.boundary(step_end, total_steps, &st);
  }
  // End-of-run snapshot guarantee for runs that never entered the loop
  // (zero generations, or a resume at/past the budget) — same contract as
  // the VMC drivers: a set checkpoint path always leaves a snapshot.
  if (entry_gen >= generations)
    pop.boundary(entry_gen * gen_steps, entry_gen * gen_steps, &st);
  pop.status.seconds += watch.elapsed();

  MiniQMCResult result = pop.result();
  result.dmc_births = st.births; // cumulative across resume (restored from Meta)
  result.dmc_deaths = st.deaths;
  result.dmc_trial_energy = st.trial_energy;
  return result;
}

} // namespace mqc::detail
