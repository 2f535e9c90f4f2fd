// WalkerPopulation: a long-running, NUMA-aware resident walker service
// (ROADMAP item 1 — the "millions of users" shape on one shared-memory
// host).
//
// Every driver owns one population (detail::PopulationCore, crowd_sweep.h):
// run_miniqmc() with DriverMode::PerWalker or Crowd builds a one-shard
// WalkerPopulation and advances it to cfg.steps, and the DMC driver branches
// on the same core between its generations.  As a service, a
// WalkerPopulation OWNS its walkers across calls: build it once, advance it
// incrementally (run_to_step / run_steps), snapshot and resume it, and
// multiplex external work onto its hot, resident spline engines through the
// async JobQueue (qmc/job_queue.h).
//
// Sharding (paper §IV-V + the mctop placement model): the population is
// split into one shard per socket (MachineTopology / resolve_shard_count;
// MQC_SHARDS or PopulationConfig::num_shards override), and the shards sit
// on the sockets in contiguous blocks.  Each socket in use holds ONE
// FIRST-TOUCH copy of the read-only B-spline coefficient tables
// (core/coef_storage.h CoefReplicaSet) and one engine + OrbitalSet facade
// built over it, shared by that socket's shards, so no shard's crowds
// pull spline traffic across the memory bus and extra shards on a socket
// cost no extra table.  Walker ids are block-partitioned over shards and
// each shard's range is swept in lock-step crowds through the one
// crowd-sweep kernel (qmc/crowd_sweep.h, which also holds the shard systems
// and the walker -> shard -> crowd split).
//
//     jobs ──> JobQueue ──┬─> shard 0 ─ crowds ─ walkers ─┬─> socket 0: replica 0 ─ engine
//                         ├─> shard 1 ─ crowds ─ walkers ─┘
//                         ├─> shard 2 ─ crowds ─ walkers ───> socket 1: replica 1 ─ engine
//     run_to_step() ──────┴─> ...          (one replica per socket, first-touch)
//
// Bit-for-bit guarantees (tests/test_population.cpp,
// tests/test_checkpoint.cpp):
//   * replicas are exact copies of one deterministic table, and walker
//     trajectories are a function of (config seed, walker id) alone — so
//     EVERY shard count, partition shape, and crowd packing produces the
//     identical `walker_accepts` / `walker_log_det` fingerprints as
//     run_miniqmc over the same config;
//   * persistence reuses the PR 7 checkpoint format unchanged: one Walker
//     section per resident walker, and shard assignment is NOT part of the
//     config hash (it is derived machine layout, not trajectory state) —
//     a population killed under S shards resumes under any other shard
//     count, and run_miniqmc snapshots interoperate both ways.
#ifndef MQC_QMC_WALKER_POPULATION_H
#define MQC_QMC_WALKER_POPULATION_H

#include <cstddef>
#include <memory>

#include "qmc/miniqmc_driver.h"

namespace mqc {

namespace detail {
struct MiniQMCSystem;  // miniqmc_context.h (internal)
struct PopulationCore; // crowd_sweep.h (internal)
}

struct PopulationConfig
{
  /// Population shape, physics, seed, and checkpoint knobs — the same config
  /// run_miniqmc takes.  crowd_size sizes each shard's lock-step crowds
  /// (0 = one crowd per shard, -1 = tuned, 1 = the per-walker schedule);
  /// steps is ignored (the population advances by explicit run_to_step
  /// targets); driver mode is ignored (run_miniqmc resolves PerWalker to
  /// crowd_size = 1 before building its population).
  MiniQMCConfig qmc;
  /// Resident shards (one walker block and one JobQueue worker each; the
  /// shards of a socket share its table replica).  0 = auto: MQC_SHARDS if
  /// set, else one per socket (common/threading.h resolve_shard_count);
  /// clamped to the walker count.  A pure placement knob: every value is
  /// trajectory-neutral and absent from the checkpoint config hash.
  int num_shards = 0;
};

class WalkerPopulation
{
public:
  explicit WalkerPopulation(const PopulationConfig& cfg);
  ~WalkerPopulation();
  WalkerPopulation(const WalkerPopulation&) = delete;
  WalkerPopulation& operator=(const WalkerPopulation&) = delete;

  [[nodiscard]] int num_shards() const noexcept;
  [[nodiscard]] int num_walkers() const noexcept;
  /// Bytes of coefficient tables the population keeps resident: one
  /// engine's tables per socket in use, shared by that socket's shards.
  [[nodiscard]] std::size_t coef_table_bytes() const noexcept;
  /// The population's Monte Carlo cursor: 0 fresh, the snapshot's step after
  /// a resume, then wherever the last run_to_step/run_steps call landed.
  [[nodiscard]] int current_step() const noexcept;

  /// Advance every resident walker to absolute step @p target_step (no-op
  /// when already there or past).  Epoch-chunked exactly like the drivers:
  /// interval-aligned snapshots between team regions when the config has a
  /// checkpoint path, an end-of-run snapshot on every call — including
  /// calls that sweep nothing — and armed fault injection at boundaries.
  void run_to_step(int target_step);
  /// Advance by @p steps from the current cursor.
  void run_steps(int steps);

  /// Aggregate result over the resident walkers: per-walker trajectory
  /// fingerprints (walker_accepts / walker_log_det), merged profiles and
  /// counters, plus restart provenance (resumed_from_step,
  /// resume_fallback_used, resume_error) and the cumulative
  /// checkpoints_written — the same surfaced-decision fields run_miniqmc
  /// reports.  `seconds` spans the walker build and resume plus every
  /// run_to_step call.  Callable between runs; fingerprints reflect the
  /// current cursor.
  [[nodiscard]] MiniQMCResult result();

  // ---- internal (qmc/job_queue.cpp) ------------------------------------
  /// The shard's resident system (engines + facade over its socket's
  /// replica, shared with the socket's other shards).  Shared read-only
  /// state: safe to evaluate from any thread with per-caller resources.
  /// Not a stable public API.
  [[nodiscard]] detail::MiniQMCSystem& shard_system_internal(int shard) const;
  /// The config the population was built with (jobs inherit its physics).
  [[nodiscard]] const MiniQMCConfig& config_internal() const noexcept;

private:
  std::unique_ptr<detail::PopulationCore> core_;
  int step_ = 0; ///< the Monte Carlo cursor (current_step)
};

} // namespace mqc

#endif // MQC_QMC_WALKER_POPULATION_H
