// miniQMC driver — the paper's vehicle (Fig. 3/6 and Tables II/III).
//
// A self-contained pseudo-QMC sweep reproducing the computational and data
// access pattern of a production DMC drift-diffusion step:
//   per electron:  propose a Gaussian move -> distance-table temp rows ->
//                  Jastrow ratios -> B-spline VGH at the trial position ->
//                  determinant ratio -> Metropolis accept/reject with
//                  Sherman-Morrison update and table row commits;
//   per step:      a measurement phase (B-spline VGL for kinetic energy,
//                  V at quadrature points for the pseudopotential analogue).
// Every driver runs the one crowd sweep (qmc/crowd_sweep.h): a crowd of
// walkers moves the same electron in lock-step, so each phase's positions,
// every walker's quadrature points included, become one multi-position
// OrbitalSet request.  Crowds (of one walker under DriverMode::PerWalker) run
// one per OpenMP thread and share the read-only coefficient table.  A walker
// holds its electrons in the one layout optimized_dt_jastrow selects, which
// is independent of the spline layout `spo`.  Every section is timed into a
// ProfileRegistry from which the Table II/III percentage rows are printed.
#ifndef MQC_QMC_MINIQMC_DRIVER_H
#define MQC_QMC_MINIQMC_DRIVER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/threading.h" // ThreadPartition / TeamPath: the team decision
#include "common/timer.h"
#include "core/orbital_set.h" // EvalPath: the driver's explicit schedule decision
#include "core/tuner.h"       // Wisdom, host_tile_size: the AoSoA tile default

namespace mqc {

enum class SpoLayout
{
  AoS,   ///< baseline (Fig. 4(a))
  SoA,   ///< Opt A (Fig. 4(b))
  AoSoA  ///< Opt B (tiled, Fig. 6)
};

/// How the walker population is advanced through the Monte Carlo sweep.
/// Every mode runs the one crowd sweep (qmc/crowd_sweep.h); PerWalker and
/// Crowd are a one-shard WalkerPopulation (qmc/walker_population.h).
enum class DriverMode
{
  PerWalker, ///< crowds of one: one walker per thread, single-position requests (paper Fig. 3)
  Crowd,     ///< lock-step crowds of crowd_size, multi-position requests
  DMC        ///< branching driver: dynamic population, birth/death (qmc/dmc_driver.h)
};

/// Timed section keys used by the driver's profile.
inline constexpr const char* kSectionBspline = "B-splines";
inline constexpr const char* kSectionDistance = "Distance Tables";
inline constexpr const char* kSectionJastrow = "Jastrow";
inline constexpr const char* kSectionDeterminant = "Determinant";

struct MiniQMCConfig
{
  std::array<int, 3> supercell{2, 2, 1}; ///< graphite supercell (paper: 4x4x1)
  int grid_size = 32;                    ///< spline grid per dimension (paper: 48)
  int num_splines = 0;                   ///< 0 => orbital count of the crystal
  /// AoSoA tile size Nb.  Defaults to the host's L1d-resolved width for the
  /// SP kernels (host_tile_size, core/tuner.h; 128 when L1d is unknown); a
  /// wisdom entry for the run still overrides it.  Scheduling only: tile
  /// width regroups the same per-orbital arithmetic, so it is outside the
  /// checkpoint config hash.
  int tile_size = host_tile_size<float>();
  SpoLayout spo = SpoLayout::AoS;
  /// Precision family of the orbital engine (core/coef_storage.h).  Native
  /// (default) keeps storage and compute in qmc_real — bit-for-bit the
  /// historical trajectories.  Mixed stores the coefficient table in float
  /// and carries all weight products and V/VGL/VGH accumulation in double;
  /// it is opt-in, deterministic (same seed -> same trajectory) and
  /// decomposition-neutral, but NOT bit-for-bit with Native.  The AoS
  /// baseline has no mixed variant: requesting Mixed with SpoLayout::AoS
  /// resolves to Native, surfaced via MiniQMCResult::precision_path (the
  /// spline_path/team_path discipline — accuracy decisions are never
  /// silent).  Affects the trajectory, so it is part of the checkpoint
  /// config hash: mixed and native snapshots refuse to cross-resume.
  PrecisionPath precision_path = PrecisionPath::Native;
  bool optimized_dt_jastrow = false;     ///< SoA distance tables + Jastrow paths
  int num_walkers = 0;                   ///< 0 => one per OpenMP thread
  int steps = 1;                         ///< Monte Carlo sweeps
  int quadrature_points = 4;             ///< V evaluations per electron per step
  double move_sigma = 0.4;               ///< Gaussian move width (bohr)
  std::uint64_t seed = 20170512;
  DriverMode driver = DriverMode::PerWalker;
  /// Crowd and DMC drivers: walkers advanced in lock-step per crowd (0 =>
  /// the whole population forms one crowd; -1 => auto: the tuned crowd size
  /// from `wisdom` when an entry exists, else the whole population).  When
  /// the size does not divide num_walkers, the remainder runs as an extra,
  /// smaller trailing crowd.  The per-walker driver always uses 1.
  int crowd_size = 0;
  /// Determinant update rank.  0 and 1 both run per-move Sherman-Morrison
  /// (determinant/det_update.h); k >= 2 named the removed delayed rank-k
  /// engine and is refused with std::invalid_argument before the run starts.
  /// Kept, and mixed into the checkpoint config hash, so existing snapshots
  /// keep loading.
  int delay_rank = 0;
  /// Inner team size of a population that is ONE crowd: how many threads
  /// its multi-position spline requests may fork (the 1 × N shape of the
  /// paper's Opt C layer).  Several crowds, the per-walker driver's
  /// included, sweep with teams of 1: the sweep never nests a parallel
  /// region.  0 = auto — the topology-aware ThreadPartition::resolve split
  /// (kept inside one socket; MQC_PARTITION / MQC_INNER_THREADS env still
  /// override).  -1 = tuned size from `wisdom`.  >= 1 = explicit.  A pure
  /// scheduling knob: trajectories are bit-for-bit identical for every
  /// value (enforced by tests/test_crowd.cpp); the schedule actually run is
  /// surfaced as MiniQMCResult::team_path.
  int inner_threads = 0;
  /// Checkpoint/restore (qmc/checkpoint.h).  Empty path = no checkpointing.
  /// With a path set, both drivers snapshot the full resumable walker state
  /// at step boundaries: every `checkpoint_interval` steps when the interval
  /// is > 0, plus once at the end of the run.  Snapshot writes are pure
  /// observers — trajectories are bit-for-bit identical with checkpointing
  /// on, off, or at any interval (tests/test_checkpoint.cpp).
  std::string checkpoint_path;
  int checkpoint_interval = 0;
  /// Resume from `checkpoint_path` before sweeping: restore walker state and
  /// continue from the snapshotted step.  A missing/damaged/mismatched
  /// snapshot (after the `.prev` fallback) degrades to a fresh start — never
  /// a crash — surfaced via MiniQMCResult::resume_error.
  bool resume = false;
  /// Fault-injection spec (see qmc/checkpoint.h FaultPlan); overrides the
  /// MQC_FAULT_INJECT env var when non-empty.  Testing machinery only.
  std::string fault_inject;
  // ---- DMC branching driver (driver == DriverMode::DMC; qmc/dmc_driver.h).
  // A run is dmc_generations branch generations of dmc_gen_steps VMC-style
  // sweeps each (cfg.steps is ignored by the DMC driver).  All knobs below
  // except dmc_generations determine the trajectory and are therefore part
  // of the checkpoint config hash in DMC mode.
  int dmc_generations = 0;  ///< branch generations to run (the DMC step budget)
  int dmc_gen_steps = 1;    ///< sweeps between branch steps (generation length)
  double dmc_tau = 0.05;    ///< imaginary time step: drift scale + weight exponent
  /// Weight window [min, max]: per-walker branching weights are clamped here
  /// after every generation's multiplicative update, bounding how fast any
  /// lineage can proliferate or starve between feedback corrections.
  double dmc_weight_min = 0.3;
  double dmc_weight_max = 3.0;
  double dmc_feedback = 1.0; ///< trial-energy gain: E_T -= g*log(N/N_target)
  int dmc_max_branch = 3;    ///< cap on copies of one walker per branch step
  int dmc_target_walkers = 0; ///< population the feedback steers to (0 => initial)
  /// Fixed-population replay oracle: drift, weights and branching are fully
  /// disabled (multiplicity pinned to 1), so the run is bit-for-bit a VMC
  /// crowd run of dmc_generations*dmc_gen_steps steps (tests/test_dmc.cpp).
  bool dmc_replay = false;
  /// Optional tuning wisdom (core/tuner.h, non-owning; see tune_miniqmc):
  /// the entry under miniqmc_wisdom_key(norb, grid_size, num_walkers)
  /// supplies the OrbitalSet facade's position block, and — with
  /// crowd_size == -1 — the crowd driver's tuned crowd size.  Tuning knobs
  /// only: they never change trajectories, which are a function of (seed,
  /// walker id) alone.
  const Wisdom* wisdom = nullptr;
};

struct MiniQMCResult
{
  ProfileRegistry profile;     ///< merged across walkers (section keys above)
  /// Wall time of the walker build, resume and sweeps (everything after the
  /// system and coefficient-table build).
  double seconds = 0.0;
  double acceptance_ratio = 0.0;
  int num_walkers = 0;
  int num_electrons = 0;
  int num_orbitals = 0;
  std::size_t moves_attempted = 0;
  std::size_t spline_orbital_evals = 0; ///< total N * (kernel calls), all walkers
  // Per-walker trajectory fingerprints (indexed by walker id), used by the
  // crowd-vs-per-walker equivalence tests: identical rng streams must give
  // identical accept counts and bit-identical final log dets in both modes.
  std::vector<std::size_t> walker_accepts;
  std::vector<double> walker_log_det; ///< log|det_up| + log|det_dn| at the end
  /// The schedule the driver ran for the drift-diffusion VGH evaluations —
  /// an explicit decision, surfaced so benchmark comparisons can't silently
  /// measure a fallback: MultiPosition only when the engine has native
  /// multi-position kernels AND crowd_size_used > 1.  The AoS baseline (no
  /// multi-position path) and every crowd of one run single-position.
  EvalPath spline_path = EvalPath::SinglePosition;
  /// The precision family the engines actually ran — cfg.precision_path
  /// after the AoS-has-no-mixed-variant resolution (explicit, surfaced,
  /// tested; never a silent fallback).
  PrecisionPath precision_path = PrecisionPath::Native;
  /// Resolved crowd size cap (1 for the per-walker driver; otherwise
  /// cfg.crowd_size after the 0 = whole population / -1 = tuned-from-wisdom
  /// resolution, clamped to the population — not to a shard).
  int crowd_size_used = 1;
  /// The team schedule the sweep ran — like spline_path, an explicit
  /// decision (NestedInner only for a one-crowd population with an inner
  /// team > 1), surfaced so benchmarks can prove the inner team actually
  /// engaged.  A DMC run reports the shape its initial population starts in.
  TeamPath team_path = TeamPath::Flat;
  /// Resolved partition: outer members the sweep region spawned (one per
  /// crowd) × inner team size per member.
  int outer_threads_used = 1;
  int inner_threads_used = 1;
  /// Step the sweep restarted from when cfg.resume found a usable snapshot;
  /// -1 = fresh start (no resume requested, or every snapshot was rejected).
  /// Surfaced like spline_path/team_path: restart provenance is an explicit
  /// decision, never silent.
  int resumed_from_step = -1;
  /// True when the `.prev` snapshot served the resume because the primary
  /// was missing or damaged (the crash-recovery path actually engaged).
  bool resume_fallback_used = false;
  /// One-line diagnosis when a requested resume fell back to a fresh start
  /// or to `.prev` (empty = clean resume or no resume requested).
  std::string resume_error;
  /// Snapshots this run wrote (interval-aligned + final).
  int checkpoints_written = 0;
  // ---- DMC provenance (driver == DriverMode::DMC; qmc/dmc_driver.cpp).
  // Population dynamics are part of the trajectory contract: two runs are
  // "the same run" only if these match exactly, so they are surfaced rather
  // than reduced away.  walker_accepts / walker_log_det above fingerprint
  // the FINAL population (children inherit their parent's counters).
  std::vector<int> dmc_population; ///< walker count after each branch step
  std::uint64_t dmc_births = 0;    ///< total walkers spawned by branching
  std::uint64_t dmc_deaths = 0;    ///< total walkers killed by branching
  double dmc_trial_energy = 0.0;   ///< final E_T after feedback
  int dmc_shards_used = 0;         ///< shards the population was re-blocked across
};

MiniQMCResult run_miniqmc(const MiniQMCConfig& cfg);

} // namespace mqc

#endif // MQC_QMC_MINIQMC_DRIVER_H
