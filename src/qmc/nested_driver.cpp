#include "qmc/nested_driver.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "common/timer.h"
#include "qmc/walker.h"

namespace mqc {

NestedResult run_nested(const MultiBspline<float>& engine, const NestedConfig& cfg)
{
  if (cfg.ns < 1 || cfg.niters < 0)
    throw std::invalid_argument("run_nested: need ns >= 1 and niters >= 0, got ns = " +
                                std::to_string(cfg.ns) + ", niters = " +
                                std::to_string(cfg.niters));
  // Partition resolution goes through the shared thread-team seam: explicit
  // cfg.nth pins the inner team, 0 asks ThreadPartition for the
  // topology-aware split over the walker count (one outer member per
  // walker).  The flat region below then runs partition.total() threads and
  // each thread derives its (walker, member) coordinates — the paper's
  // explicit decomposition, just with the shape decided in one place.
  const int total = cfg.total_threads > 0 ? cfg.total_threads : max_threads();
  const int outer_hint = cfg.num_walkers > 0 ? cfg.num_walkers
                                             : std::max(1, total / std::max(1, cfg.nth));
  const ThreadPartition part = ThreadPartition::resolve(outer_hint, cfg.nth, total);
  const int nth = part.inner;
  const int nw = cfg.num_walkers > 0 ? cfg.num_walkers : std::max(1, total / nth);
  const int nthreads = nw * nth;
  const int ntiles = engine.num_tiles();
  const int pb = std::clamp(cfg.pos_block, 1, cfg.ns);

  // Per-walker buffers and positions, prepared outside the timed region.
  // With pos_block == P, a walker owns P output buffers so a whole block's
  // results are live at once.
  std::vector<std::vector<std::unique_ptr<WalkerSoA<float>>>> outputs(
      static_cast<std::size_t>(nw));
  std::vector<std::vector<float*>> vp(static_cast<std::size_t>(nw)), gp(vp), lp(vp), hp(vp);
  std::vector<std::vector<Vec3<float>>> pos(static_cast<std::size_t>(nw));
  const auto& grid = engine.grid();
  for (int wdx = 0; wdx < nw; ++wdx) {
    const auto u = static_cast<std::size_t>(wdx);
    for (int p = 0; p < pb; ++p) {
      outputs[u].push_back(std::make_unique<WalkerSoA<float>>(engine.out_stride()));
      vp[u].push_back(outputs[u].back()->v.data());
      gp[u].push_back(outputs[u].back()->g.data());
      lp[u].push_back(outputs[u].back()->l.data());
      hp[u].push_back(outputs[u].back()->h.data());
    }
    Xoshiro256 rng = Xoshiro256::for_stream(cfg.seed, static_cast<std::uint64_t>(wdx));
    pos[u].resize(static_cast<std::size_t>(cfg.ns));
    for (int s = 0; s < cfg.ns; ++s)
      pos[u][static_cast<std::size_t>(s)] =
          Vec3<float>{static_cast<float>(rng.uniform(grid.x.start, grid.x.end)),
                      static_cast<float>(rng.uniform(grid.y.start, grid.y.end)),
                      static_cast<float>(rng.uniform(grid.z.start, grid.z.end))};
  }

  Stopwatch watch;
  // Deliberate raw region: the paper's explicit flat Nw x nth decomposition
  // derives each thread's (walker, member) coordinates from its id inside
  // ONE region — the ablation reference the team-scheduled drivers are
  // measured against, so it must keep the paper's literal shape.
  // mqc-lint: allow(omp-parallel)
#pragma omp parallel num_threads(nthreads)
  {
    const TeamCoordinates tc = team_coordinates(thread_id(), nth);
    const auto wu = static_cast<std::size_t>(tc.walker);
    const auto& x = pos[wu];
    const StridedRange my_tiles(static_cast<std::size_t>(ntiles), static_cast<std::size_t>(nth),
                                static_cast<std::size_t>(tc.member));
    // Per block of P positions, compute the P weight sets once, then sweep
    // each of this member's tiles once for the whole block.  Members of a
    // team share positions but compute their own weights (cheap, amortized
    // over their tile subset).  Raw tile calls are deliberate here: this
    // driver IS the explicit decomposition the facade is measured against,
    // and a team member's private tile subset cannot be expressed as a
    // facade request.
    std::vector<BsplineWeights3D<float>> wts(static_cast<std::size_t>(pb));
    const std::size_t stride = outputs[wu].front()->stride;
    float* const* v = vp[wu].data();
    float* const* g = gp[wu].data();
    float* const* l = lp[wu].data();
    float* const* h = hp[wu].data();
    for (int it = 0; it < cfg.niters; ++it)
      for (int s0 = 0; s0 < cfg.ns; s0 += pb) {
        const int count = std::min(pb, cfg.ns - s0);
        compute_weights_batch(cfg.kernel, engine.eval_grid(), x.data() + s0, count, wts.data());
        switch (cfg.kernel) {
        case DerivLevel::V:
          my_tiles.for_each([&](std::size_t t) {
            // mqc-lint: allow(raw-spline-call)
            engine.evaluate_v_tile_multi(static_cast<int>(t), wts.data(), count, v);
          });
          break;
        case DerivLevel::VGL:
          my_tiles.for_each([&](std::size_t t) {
            // mqc-lint: allow(raw-spline-call)
            engine.evaluate_vgl_tile_multi(static_cast<int>(t), wts.data(), count, v, g, l,
                                           stride);
          });
          break;
        case DerivLevel::VGH:
          my_tiles.for_each([&](std::size_t t) {
            // mqc-lint: allow(raw-spline-call)
            engine.evaluate_vgh_tile_multi(static_cast<int>(t), wts.data(), count, v, g, h,
                                           stride);
          });
          break;
        }
      }
  }

  NestedResult result;
  result.seconds = watch.elapsed();
  result.num_walkers = nw;
  result.nth = nth;
  result.pos_block = pb;
  const double evals = static_cast<double>(nw) * cfg.niters * cfg.ns * engine.num_splines();
  result.throughput = evals / result.seconds;
  return result;
}

} // namespace mqc
