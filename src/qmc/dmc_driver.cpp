// The DMC branching driver: dynamic walker populations with weight-window
// population control, full-state walker cloning, and contiguous crowd/shard
// re-blocking after every branch step.  See dmc_driver.h for the design
// contract.  Generations sweep through the one crowd-sweep body
// (crowd_sweep.h) with the Langevin drift as its proposal-centre argument —
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
  // The WalkerPopulation placement: shard systems over first-touch replicas,
  // built once and never moved — only the walker->shard map is rebuilt
  // after branch steps.
  const ShardSystems shards(cfg, 0);
  const MiniQMCSystem& sys0 = shards.master();
  const int nw0 = sys0.nw;
  const int num_shards = shards.size();

  // Effective branching knobs (clamped here, hashed raw in the config hash).
  const int generations = std::max(0, cfg.dmc_generations);
  const int gen_steps = std::max(1, cfg.dmc_gen_steps);
  const int total_steps = generations * gen_steps;
  const int target = cfg.dmc_target_walkers > 0 ? cfg.dmc_target_walkers : nw0;
  const int pop_cap = 4 * target;
  const int max_branch = std::max(1, cfg.dmc_max_branch);
  const double wmin = std::min(cfg.dmc_weight_min, cfg.dmc_weight_max);
  const double wmax = std::max(cfg.dmc_weight_min, cfg.dmc_weight_max);
  const double gen_tau = cfg.dmc_tau * gen_steps;
  const bool replay = cfg.dmc_replay;
  const double drift_tau = replay ? 0.0 : cfg.dmc_tau; // the sweep's proposal-centre policy

  const int crowd_cap = resolve_crowd_cap(cfg, sys0);
  std::vector<WalkerState> walkers(static_cast<std::size_t>(nw0));
  std::vector<CrowdRef> crowds = decompose_population(nw0, num_shards, crowd_cap);
  const int init_crowds = static_cast<int>(crowds.size());

  const ThreadPartition part = resolve_team_partition(cfg, sys0, init_crowds);
  const TeamHandle inner = TeamHandle::inner_of(part);

  MiniQMCResult result = run_provenance(sys0, nw0, crowd_cap, part);
  result.dmc_shards_used = num_shards;
  result.dmc_population.reserve(static_cast<std::size_t>(generations));

  Stopwatch total_watch;

  // ---- setup (not profiled): each crowd initializes its own walkers on
  // its shard's system — same flat walker ids as every other driver, so the
  // replay oracle starts from the identical population ----------------------
  team_for(TeamHandle::of(init_crowds), init_crowds, [&](int cid) {
    const CrowdRef c = crowds[static_cast<std::size_t>(cid)];
    for (int wid = c.first; wid < c.first + c.count; ++wid)
      init_walker(walkers[static_cast<std::size_t>(wid)], shards[c.shard], cfg, wid);
  });

  DmcRunState st;
  st.weights.assign(static_cast<std::size_t>(nw0), 1.0);

  // ---- resume (outside any team region): rebuild the population at the
  // snapshot's size and restore the branching provenance --------------------
  const CheckpointRuntime ckrt = make_checkpoint_runtime(cfg, sys0);
  const int resumed_step = dmc_resume_from_checkpoint(ckrt, cfg, sys0, walkers, st, result);
  int gen = 0;
  if (resumed_step > 0) {
    gen = st.generation;
    assert(resumed_step == gen * gen_steps);
    crowds = decompose_population(static_cast<int>(walkers.size()), num_shards, crowd_cap);
  }

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
  // CrowdScratch is rebuilt per generation on the sweeping thread
  // (first-touch) and dies with the region: branching reorders the walker
  // vector, so the gathered pointer tables are only generation-invariant.
  const int entry_gen = gen;
  std::vector<ProfileRegistry> crowd_profiles;
  for (; gen < generations; ++gen) {
    const int step_begin = gen * gen_steps;
    const int step_end = step_begin + gen_steps;
    const int num_crowds = static_cast<int>(crowds.size());
    crowd_profiles.assign(static_cast<std::size_t>(num_crowds), ProfileRegistry{});
    team_for(TeamHandle::of(num_crowds), num_crowds, [&](int cid) {
      const CrowdRef c = crowds[static_cast<std::size_t>(cid)];
      const MiniQMCSystem& ssys = shards[c.shard];
      for (int wid = c.first; wid < c.first + c.count; ++wid)
        walkers[static_cast<std::size_t>(wid)].set_team(inner.bound_to_current_region());
      CrowdScratch scr(walkers, c.first, c.count, ssys);
      crowd_sweep_steps(ssys, cfg, walkers, c.first, c.count, scr,
                        crowd_profiles[static_cast<std::size_t>(cid)], inner, step_begin,
                        step_end, drift_tau);
    });
    for (const auto& p : crowd_profiles)
      result.profile.merge(p);

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
      // Re-block the survivors contiguously across the resident shards.
      crowds = decompose_population(static_cast<int>(walkers.size()), num_shards, crowd_cap);
    }
    st.generation = gen + 1;
    result.dmc_population.push_back(static_cast<int>(walkers.size()));

    dmc_checkpoint_boundary(ckrt, cfg, sys0, walkers, st, step_end, total_steps, result);
  }
  // End-of-run snapshot guarantee for runs that never entered the loop
  // (zero generations, or a resume at/past the budget) — same contract as
  // the VMC drivers: a set checkpoint path always leaves a snapshot.
  if (entry_gen >= generations)
    dmc_checkpoint_boundary(ckrt, cfg, sys0, walkers, st, entry_gen * gen_steps,
                            entry_gen * gen_steps, result);

  result.seconds = total_watch.elapsed();
  result.num_walkers = static_cast<int>(walkers.size());
  result.dmc_births = st.births;   // cumulative across resume (restored from Meta)
  result.dmc_deaths = st.deaths;
  result.dmc_trial_energy = st.trial_energy;
  reduce_result(result, walkers);
  return result;
}

} // namespace mqc::detail
