// Nested-threading driver (paper §V-C, Fig. 6/9, Opt C).
//
// One flat OpenMP region runs Nw x nth threads; thread tid serves
// (walker tid/nth, member tid%nth) and evaluates the tile subset
// {member, member+nth, ...} of its walker's AoSoA engine — the explicit
// data-partition scheme the paper uses to avoid nested-runtime overhead.
// Strong scaling: the walker count is reduced by the same nth factor, so
// total work (and the output working set 40*Nw*Nb*nth bytes) stays fixed.
//
// Every member sweeps its tiles a block of pos_block = P positions at a
// time: it computes the block's P weight sets once, then evaluates each of
// its tiles once for the whole block, so the tile's coefficient slice is
// streamed from memory once per P positions instead of once per position.
// Each walker owns P output buffers (the block's outputs stay live), scaling
// the output working set by P — the trade the joint (Nb, P) tuner in
// core/tuner.h probes.  P = 1 is the paper's one-position-per-pass loop.
#ifndef MQC_QMC_NESTED_DRIVER_H
#define MQC_QMC_NESTED_DRIVER_H

#include <cstdint>

#include "core/multi_bspline.h"
#include "core/orbital_set.h"

namespace mqc {

struct NestedConfig
{
  /// Threads per walker (the inner team).  0 => topology-aware auto via
  /// ThreadPartition::resolve (common/threading.h): the machine's threads
  /// split over the walkers, teams kept inside one socket, MQC_PARTITION /
  /// MQC_INNER_THREADS env overrides honoured.
  int nth = 1;
  int num_walkers = 0;   ///< 0 => total_threads / nth (>= 1)
  int total_threads = 0; ///< 0 => omp_get_max_threads()
  int ns = 64;           ///< random positions per walker per iteration (>= 1)
  int niters = 1;        ///< >= 0
  int pos_block = 1;     ///< positions per tile pass, clamped to [1, ns]
  DerivLevel kernel = DerivLevel::VGH;
  std::uint64_t seed = 4242;
};

struct NestedResult
{
  double seconds = 0.0;
  double throughput = 0.0; ///< orbital evaluations per second, whole node
  int num_walkers = 0;
  int nth = 1;
  int pos_block = 1;       ///< effective block size used (clamped to ns)
};

/// Run the strong-scaling kernel loop on an existing AoSoA engine.  Throws
/// std::invalid_argument when cfg.ns < 1 or cfg.niters < 0, before anything
/// is allocated.
NestedResult run_nested(const MultiBspline<float>& engine, const NestedConfig& cfg);

} // namespace mqc

#endif // MQC_QMC_NESTED_DRIVER_H
