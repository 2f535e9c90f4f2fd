// DMC branching driver (tentpole of the dynamic-population line of work).
//
// Diffusion Monte Carlo is the workload the fixed-count VMC drivers only
// emulate: walkers drift along the local wave-function gradient, diffuse
// with Gaussian noise, and carry a branching weight that periodically
// converts into birth/death — the population grows, shrinks, and must be
// re-blocked across crowds and shards at runtime.  This driver builds that
// on the shared crowd-sweep core (crowd_sweep.h):
//
//   * A run is cfg.dmc_generations *generations* of cfg.dmc_gen_steps
//     lock-step sweeps each.  Within a generation the population is fixed
//     and every crowd advances through crowd_sweep_steps, the sweep the VMC
//     drivers run; drift is its proposal-centre argument (cfg.dmc_tau) —
//     one extra VGL batch at the current positions of each electron, whose
//     gradient column moves that electron's proposal centre by tau * v
//     (clamped).  The proposal still draws exactly three gaussians per
//     electron from the walker's own stream, so the draw-sequence structure
//     matches VMC move for move.
//   * At each generation boundary (serial, outside any team region, in
//     walker-id order) weights update by exp(-tau*gen_steps*(E_L - E_T)),
//     clamp into the weight window [dmc_weight_min, dmc_weight_max], and
//     convert to an integer multiplicity by stochastic rounding
//     m = floor(w + u) (capped by dmc_max_branch and a 4x-target population
//     ceiling).  m = 0 kills the walker; m > 1 spawns m-1 children, each a
//     FULL state clone of its parent (positions, rng stream incl. the
//     Box–Muller cache, determinant panels, and distance tables rebuilt
//     from the positions — the checkpoint Walker codec is the clone path,
//     see detail::clone_walker_state) on its own split rng stream
//     (Xoshiro256::split), so a child's trajectory is a pure function of
//     parent state + child stream.  The trial energy then moves by the
//     feedback rule E_T -= dmc_feedback * log(N / N_target).
//   * The driver owns the same population core as WalkerPopulation
//     (detail::PopulationCore, crowd_sweep.h) and keeps only this generation
//     loop and branch step.  After every branch step the core's reblock()
//     re-splits the surviving walkers contiguously across the same
//     socket-sharded systems (first-touch coefficient replicas are built
//     once and never move; only the walker->shard/crowd map, the crowd
//     scratch and the team bindings are rebuilt).  Replay mode never
//     re-blocks: its scratch is built once.
//
// The oracle: with cfg.dmc_replay set, drift, weighting and branching are
// disabled entirely (multiplicity pinned to 1) and each generation runs
// crowd_sweep_steps with a zero drift argument — the run is then bit-for-bit
// a VMC crowd run of dmc_generations*dmc_gen_steps steps, for every layout,
// crowd size, partition shape, and shard count
// (tests/test_dmc.cpp).
// Full DMC runs are seed-deterministic: identical population trace, birth/
// death counters, trial energy and per-walker fingerprints on every rerun
// and under every decomposition.
//
// Checkpoint/restore: snapshots are written at generation boundaries
// through the PR 7 format (variable walker-section count was already
// supported); the Meta section gains an appended DMC tail — generation,
// trial energy, birth/death counters, per-walker weights — and the DMC
// branching knobs join the config hash, so VMC and DMC snapshots never
// cross-resume silently and a killed DMC run resumes bit-for-bit, under any
// shard count, crowd size or partition shape.  The hooks are the VMC ones
// given the run's DmcRunState: the core's boundary() and resume()
// (detail::checkpoint_step_boundary / resume_from_checkpoint).
//
// Entry point: run_miniqmc() with cfg.driver == DriverMode::DMC
// (implementation in dmc_driver.cpp; internal plumbing declared in
// miniqmc_context.h).
#ifndef MQC_QMC_DMC_DRIVER_H
#define MQC_QMC_DMC_DRIVER_H

#include "qmc/miniqmc_driver.h"

#endif // MQC_QMC_DMC_DRIVER_H
