// Batched multi-walker evaluation — the population-wide convenience wrapper
// over the OrbitalSet facade (core/orbital_set.h), which owns the actual
// dispatch: weights once per position, tile-outer / position-block-inner
// sweeps, OpenMP over (tile, block) work items.
//
// The guarantee: within one work item the tile's 4*Ng*Nb-byte coefficient
// slice is streamed from memory once and reused from cache by all P
// positions of the block, and with static scheduling consecutive blocks of
// the same tile extend that residency across the whole population.  P trades
// input reuse against the output working set (40*P*Nb bytes for VGH) and is
// tuned jointly with Nb (core/tuner.h); P = 1 is the one-position-per-pass
// schedule the blocked one is benchmarked against (bench/gb_batched_multi).
//
// Scratch (weight sets, output pointer tables) is the facade's
// OrbitalResource; the wrapper uses the shared per-thread instance so
// steady-state driver iterations allocate nothing.
//
// Threading routes through the TeamHandle seam (common/threading.h): the
// wrapper takes the caller's team and hands it to the facade request,
// defaulting to whole_machine() — the right size for its usual top-level,
// ownerless call sites.  Callers already inside a partitioned region (a
// crowd's outer member) pass their inner team instead, so the wrapper never
// blindly re-derives the machine size inside someone else's region.
#ifndef MQC_CORE_BATCHED_H
#define MQC_CORE_BATCHED_H

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/vec3.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "qmc/walker.h"

namespace mqc {

/// Evaluate positions[w] into outs[w] for every walker w at level @p deriv:
/// one parallel facade request, @p pos_block positions per tile pass (0 =
/// the whole population).  All output buffers must share one component
/// stride; VGL writes each walker's Laplacian stream, VGH its Hessians.
template <typename T>
void evaluate_batched(const MultiBspline<T>& engine, DerivLevel deriv,
                      const std::vector<Vec3<T>>& positions,
                      const std::vector<WalkerSoA<T>*>& outs, int pos_block = 0,
                      TeamHandle team = TeamHandle::whole_machine())
{
  assert(positions.size() == outs.size());
  if (positions.empty())
    return;
  const int nw = static_cast<int>(positions.size());
  auto& res = OrbitalResource<T>::thread_instance();
  res.resize_tables(nw);
  const std::size_t stride = outs[0]->stride;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    WalkerSoA<T>& out = *outs[i];
    assert(out.stride == stride && "batched outputs must share one component stride");
    res.v[i] = out.v.data();
    res.g[i] = out.g.data();
    res.lh[i] = deriv == DerivLevel::VGH ? out.h.data() : out.l.data();
  }
  OrbitalEvalRequest<T> rq;
  rq.deriv = deriv;
  rq.positions = positions.data();
  rq.count = nw;
  rq.v = res.v.data();
  if (deriv != DerivLevel::V) {
    rq.g = res.g.data();
    rq.lh = res.lh.data();
  }
  rq.stride = stride;
  rq.pos_block = pos_block;
  rq.parallel = team.parallel();
  rq.team = team;
  OrbitalSet<T>(engine).evaluate(rq, res);
}

} // namespace mqc

#endif // MQC_CORE_BATCHED_H
