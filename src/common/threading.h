// Thread-team subsystem: topology-aware nested parallelism (paper §V-C).
//
// The paper's biggest many-core win ("Opt C") is *nested* parallelism — an
// outer team over walkers/crowds with inner teams sweeping spline tiles ×
// position blocks.  This header is the one place that decides how the
// machine is split:
//
//   MachineTopology   what the host looks like (sockets × cores × SMT),
//                     detected from sysfs, overridable via MQC_TOPOLOGY;
//   ThreadPartition   the outer × inner split of the machine for a given
//                     number of outer work items (crowds/walkers),
//                     topology-aware so an inner team never straddles a
//                     socket, overridable via MQC_PARTITION /
//                     MQC_INNER_THREADS or config knobs;
//   TeamHandle        the capability passed DOWN call chains ("you may use
//                     this many threads") so no layer blindly calls
//                     omp_get_max_threads() again inside someone else's
//                     parallel region;
//   TeamPath          the schedule a driver actually ran (flat / inner team
//                     forked), surfaced in results the way EvalPath is — an
//                     explicit decision, never a silent fallback.
//
// No schedule opens a parallel region inside another one.  The crowd sweep
// (qmc/crowd_sweep.h) forks an inner team only when the population is one
// crowd (the 1 × N shape); several crowds each sweep on one thread of the
// crowds' region.  The nested driver keeps the paper's explicit flat Nw×nth
// region, derived from a ThreadPartition through the flat-region arithmetic
// (team_coordinates, block/strided partitions) below.
//
// Every split is trajectory-neutral by construction: teams only distribute
// independent (tile, position-block) work items, so results are bit-for-bit
// identical for every partition shape — the invariant tests/test_crowd.cpp
// enforces.
#ifndef MQC_COMMON_THREADING_H
#define MQC_COMMON_THREADING_H

#include <algorithm>
#include <cstddef>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mqc {

inline int max_threads() noexcept
{
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

inline int thread_id() noexcept
{
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

inline int num_threads_in_region() noexcept
{
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// Nesting depth of enclosing parallel regions (active or not); 0 outside
/// any region.  Used to key per-level scratch (OrbitalResource) so an outer
/// call's live resource can never alias a nested call's.
inline int nest_level() noexcept
{
#ifdef _OPENMP
  return omp_get_level();
#else
  return 0;
#endif
}

/// Inside an active parallel region (one of more than one thread)?  A team
/// wider than one thread is handed down only outside one, so no schedule
/// nests a second active level.
inline bool in_parallel_region() noexcept
{
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Env-knob parsing
// ---------------------------------------------------------------------------

/// Strict parse of one env knob's value (MQC_TOPOLOGY / MQC_PARTITION /
/// MQC_INNER_THREADS).  Robustness surface: a malformed value must never
/// yield a bogus partition or half-parsed shape — it is rejected whole, the
/// caller emits a one-line warning, and the auto fallback runs instead.
struct EnvKnob
{
  bool present = false; ///< the env var was set (even to garbage)
  bool valid = false;   ///< the value had exactly the expected shape
  int count = 0;        ///< fields parsed (only when valid)
  int values[3] = {0, 0, 0};
};

/// Parse @p text (null = absent) as @p min_count..@p max_count positive
/// integers separated by 'x', ':' or ',' (e.g. "2x8x2").  Strict: empty
/// values, zero/negative/oversized fields, wrong field counts, and ANY
/// trailing garbage all yield present-but-invalid.  Pure function of the
/// string — unit-testable without touching the environment.
EnvKnob parse_env_knob(const char* text, int min_count, int max_count);

// ---------------------------------------------------------------------------
// Machine topology
// ---------------------------------------------------------------------------

/// Socket/core/SMT shape of the host.  `logical_cpus` is always >= 1; the
/// finer fields fall back to a flat 1 × logical_cpus × 1 shape when the
/// platform exposes nothing (non-Linux, restricted /sys).
struct MachineTopology
{
  int logical_cpus = 1;
  int sockets = 1;
  int cores_per_socket = 1;
  int smt = 1;          ///< hardware threads per core
  bool detected = false; ///< true when read from the platform (not a fallback)

  [[nodiscard]] constexpr int threads_per_socket() const noexcept
  {
    return cores_per_socket * smt;
  }
};

/// Detect the host topology.  Sources, in priority order:
///   1. MQC_TOPOLOGY=SxCxT (sockets x cores-per-socket x smt) — forced shape
///      for tests and for cluster launchers that know better;
///   2. Linux sysfs (/sys/devices/system/cpu/cpu*/topology);
///   3. fallback: 1 socket x omp_get_max_threads() cores x 1.
/// The result is computed once per process and cached.
const MachineTopology& machine_topology();

/// Uncached detection (exposed for tests; honours the same env override).
MachineTopology query_machine_topology();

// ---------------------------------------------------------------------------
// Thread partition and team handles
// ---------------------------------------------------------------------------

/// The outer × inner split of the machine: `outer` team members (one per
/// crowd / walker / work shard), each owning an inner team of `inner`
/// threads for tile × position-block sweeps.
struct ThreadPartition
{
  int outer = 1; ///< outer team size (crowds / walkers advanced concurrently)
  int inner = 1; ///< threads per outer member (tiles × position blocks)

  [[nodiscard]] constexpr int total() const noexcept { return outer * inner; }

  /// Split the machine for @p outer_work outer work items.
  ///
  /// `requested_inner` > 0 pins the inner team size; 0 means auto:
  ///   inner0 = max(1, total_threads / outer_work), then shrunk to the
  ///   largest divisor of the topology's threads-per-socket not exceeding
  ///   inner0, so an inner team always fits inside one socket (the mctop
  ///   lesson: cross-socket teams share nothing but the memory bus).
  /// Env overrides (checked only in auto mode, priority order):
  ///   MQC_PARTITION=OxI   forces the whole partition (outer clamped to
  ///                       outer_work is NOT applied — you asked for it);
  ///   MQC_INNER_THREADS=I forces the inner size only.
  /// `total_threads` <= 0 means omp_get_max_threads().
  static ThreadPartition resolve(int outer_work, int requested_inner = 0,
                                 int total_threads = 0);

  /// resolve() against an explicit topology (unit-testable, no env, no omp).
  static ThreadPartition resolve_for(int outer_work, int requested_inner, int total_threads,
                                     const MachineTopology& topo);
};

/// Number of resident-population shards to run on this host.  The shards sit
/// on the sockets in blocks, and each socket in use holds one first-touch
/// copy of the read-only coefficient tables that its shards share
/// (qmc/walker_population.h), so the natural count is one per socket.
/// `requested` > 0 pins the count; 0 means auto: MQC_SHARDS if set and valid
/// (one positive integer; malformed values warn and fall through), else
/// machine_topology().sockets.
int resolve_shard_count(int requested = 0);

/// resolve_shard_count() against an explicit topology (unit-testable: no
/// env lookup, no cached machine state).
[[nodiscard]] int resolve_shard_count_for(int requested, const MachineTopology& topo) noexcept;

/// A capability handle passed down a call chain: "this call may use up to
/// `nthreads` threads".  `0` delegates to the runtime (whatever
/// omp_get_max_threads() grants at the parallel site) — the documented
/// behaviour for ownerless population-wide call sites; every layer that has
/// a partition passes an explicit size instead.
struct TeamHandle
{
  int nthreads = 1;

  [[nodiscard]] static constexpr TeamHandle serial() noexcept { return TeamHandle{1}; }
  /// Let the runtime size the team at the parallel site.
  [[nodiscard]] static constexpr TeamHandle whole_machine() noexcept { return TeamHandle{0}; }
  [[nodiscard]] static constexpr TeamHandle of(int n) noexcept { return TeamHandle{n}; }
  /// The inner team of a partition.
  [[nodiscard]] static constexpr TeamHandle inner_of(const ThreadPartition& p) noexcept
  {
    return TeamHandle{p.inner};
  }

  /// Concrete thread count to hand to num_threads(...).
  [[nodiscard]] int resolve() const noexcept { return nthreads > 0 ? nthreads : max_threads(); }
  /// Should a parallel schedule be attempted at all?
  [[nodiscard]] constexpr bool parallel() const noexcept { return nthreads != 1; }
};

/// Which team schedule a driver actually ran — the nested analogue of
/// EvalPath, surfaced in MiniQMCResult (never a silent fallback).
enum class TeamPath
{
  Flat,       ///< inner teams of 1: the classic one-crowd/walker-per-thread region
  NestedInner ///< an inner team > 1 forks under its one outer member
};

[[nodiscard]] constexpr const char* team_path_name(TeamPath p) noexcept
{
  switch (p) {
  case TeamPath::Flat:
    return "flat";
  case TeamPath::NestedInner:
    return "nested-inner";
  }
  return "?";
}

/// The schedule of a sweep whose outer members hold inner teams of
/// @p inner threads.  An inner team wider than one thread is only ever
/// handed to a one-member outer region, which opens no region of its own,
/// so the team always forks.
constexpr TeamPath classify_team_path(int inner) noexcept
{
  return inner > 1 ? TeamPath::NestedInner : TeamPath::Flat;
}

// ---------------------------------------------------------------------------
// Team-scheduled loop: THE routing seam for parallel sweeps
// ---------------------------------------------------------------------------
//
// Every parallel loop in src/ goes through team_for (or through the facade
// sweeps in core/orbital_set.h, which keep their pragmas for exact hot-path
// codegen): the TeamHandle decides the width, the helper owns the raw
// `#pragma omp parallel` — so no other layer opens regions, re-derives the
// machine size, or hides a `num_threads` the partition didn't grant.
// tools/lint_invariants.py enforces exactly that (rule `omp-parallel`).
//
// team_for only distributes independent iterations, so any team size is
// trajectory-neutral by construction; a team resolving to 1 thread runs the
// plain serial loop without opening a region at all.

/// Run fn(i) for i in [0, n) on the team's threads (static schedule; the
/// width is capped at n so no member is left without an iteration).
template <typename Fn>
void team_for(TeamHandle team, int n, Fn&& fn)
{
  const int nth = n > 1 ? std::min(team.resolve(), n) : 1;
  if (nth > 1) {
#pragma omp parallel for schedule(static) num_threads(nth)
    for (int i = 0; i < n; ++i)
      fn(i);
  } else {
    for (int i = 0; i < n; ++i)
      fn(i);
  }
}

// ---------------------------------------------------------------------------
// Flat-region arithmetic (the paper's explicit Nw × nth decomposition)
// ---------------------------------------------------------------------------

/// Coordinates of one thread inside the flat walker×member decomposition.
struct TeamCoordinates
{
  int walker = 0; ///< which Monte Carlo walker this thread serves
  int member = 0; ///< rank within the walker's team, in [0, nth)
};

/// Map a flat thread id onto (walker, member) for teams of size @p nth.
/// Threads of one team are consecutive so that on real machines they land on
/// neighbouring cores sharing cache — the locality the paper's explicit
/// partition is designed for.
constexpr TeamCoordinates team_coordinates(int tid, int nth) noexcept
{
  return TeamCoordinates{tid / nth, tid % nth};
}

/// Half-open index range.
struct Range
{
  std::size_t first = 0;
  std::size_t last = 0;
  [[nodiscard]] constexpr std::size_t size() const noexcept { return last - first; }
  [[nodiscard]] constexpr bool empty() const noexcept { return first == last; }
};

/// Contiguous block partition of [0, total) into @p parts pieces; the first
/// (total % parts) pieces are one element longer.  Every element is covered
/// exactly once for any parts >= 1, including parts > total.
constexpr Range block_range(std::size_t total, std::size_t parts, std::size_t which) noexcept
{
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  const std::size_t first = which * base + (which < extra ? which : extra);
  const std::size_t size = base + (which < extra ? 1 : 0);
  return Range{first, first + size};
}

/// Round-robin partition: member @p which of @p parts owns indices
/// which, which+parts, ... (the distribution the paper uses for tiles so
/// that the tile→thread map is independent of M % nth).
class StridedRange
{
public:
  constexpr StridedRange(std::size_t total, std::size_t parts, std::size_t which) noexcept
      : total_(total), stride_(parts), next_(which)
  {
  }

  template <typename Fn>
  void for_each(Fn&& fn) const
  {
    for (std::size_t i = next_; i < total_; i += stride_)
      fn(i);
  }

  [[nodiscard]] constexpr std::size_t count() const noexcept
  {
    return next_ >= total_ ? 0 : (total_ - next_ - 1) / stride_ + 1;
  }

private:
  std::size_t total_;
  std::size_t stride_;
  std::size_t next_;
};

} // namespace mqc

#endif // MQC_COMMON_THREADING_H
