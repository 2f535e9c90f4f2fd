// Ablation studies for two of the paper's design choices (README, "Benchmarks
// -> paper figures/tables"):
//   1. z-loop unrolling inside the SoA VGH kernel (paper §V-A "other
//      optimizations"): SoA layout with and without fused z-sums.
//   2. Explicit thread partition vs letting a second OpenMP level schedule
//      tiles dynamically (paper §V-C argues for the explicit scheme).
#include <iostream>

#include "common/table.h"
#include "common/threading.h"
#include "common/timer.h"
#include "core/tuner.h"
#include "qmc/nested_driver.h"
#include "bench_common.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace mqc;
using namespace mqc::bench;

/// Nested evaluation using a dynamic `omp parallel for` over tiles — the
/// alternative the paper rejected in favour of the explicit partition.
double run_omp_nested_vgh(const MultiBspline<float>& engine, int nth, int ns, int niters,
                          std::uint64_t seed)
{
  WalkerSoA<float> out(engine.out_stride());
  const auto pos = random_eval_positions(engine.tile(0).coefs().grid(), ns, seed);
  Stopwatch watch;
  for (int it = 0; it < niters; ++it)
    for (int s = 0; s < ns; ++s) {
      const float x = pos.x[static_cast<std::size_t>(s)];
      const float y = pos.y[static_cast<std::size_t>(s)];
      const float z = pos.z[static_cast<std::size_t>(s)];
#pragma omp parallel for schedule(dynamic) num_threads(nth)
      for (int t = 0; t < engine.num_tiles(); ++t)
        engine.evaluate_vgh_tile(t, x, y, z, out.v.data(), out.g.data(), out.h.data(),
                                 out.stride);
    }
  return watch.elapsed();
}

} // namespace

int main()
{
  const BenchScale scale = bench_scale();
  const int n = scale.n_single;
  const auto grid = Grid3D<float>::cube(scale.grid, 1.0f);
  auto coefs = make_random_storage<float>(grid, n, 333);

  print_banner(std::cout, "Ablation 1: SoA VGH with vs without z-loop unrolling, N=" +
                              std::to_string(n));
  {
    const double t_unrolled =
        measure_throughput(Layout::SoA, DerivLevel::VGH, *coefs, n, scale.ns, scale.min_seconds);
    const double t_plain = measure_throughput(Layout::SoANoZUnroll, DerivLevel::VGH, *coefs, n,
                                              scale.ns, scale.min_seconds);
    TablePrinter tp({"variant", "T (Meval/s)", "relative"});
    tp.add_row({"SoA, 64-subcube loop", TablePrinter::cell(t_plain / 1e6, 2),
                TablePrinter::cell(1.0, 2)});
    tp.add_row({"SoA, fused z-sums", TablePrinter::cell(t_unrolled / 1e6, 2),
                TablePrinter::cell(t_unrolled / t_plain, 2)});
    tp.print(std::cout);
    std::cout << "Expected: fused z-sums win (4 streams + FMA chains instead of 64 passes\n"
                 "over all 10 output streams).\n";
  }

  print_banner(std::cout, "Ablation 2: explicit partition vs nested 'omp parallel for'");
  {
    const auto tune =
        tune_tile_size_vgh(*coefs, default_tile_candidates(n, 16), scale.ns, scale.min_seconds / 4);
    MultiBspline<float> engine(*coefs, tune.best_tile);
    const int nth = std::min(2, max_threads());
    const int iters = 4;

    NestedConfig cfg;
    cfg.nth = nth;
    cfg.num_walkers = 1;
    cfg.ns = scale.ns;
    cfg.niters = iters;
    cfg.kernel = DerivLevel::VGH;
    const auto explicit_part = run_nested(engine, cfg);
    const double t_omp = run_omp_nested_vgh(engine, nth, scale.ns, iters, 99);

    TablePrinter tp({"scheme", "time (s)", "relative"});
    tp.add_row({"explicit walker x member partition", TablePrinter::cell(explicit_part.seconds, 3),
                TablePrinter::cell(1.0, 2)});
    tp.add_row({"nested omp parallel for (dynamic)", TablePrinter::cell(t_omp, 3),
                TablePrinter::cell(t_omp / explicit_part.seconds, 2)});
    tp.print(std::cout);
    std::cout << "Expected: the explicit partition is at least as fast — it pays no\n"
                 "per-position fork/join or dynamic-scheduling cost (paper §V-C).\n";
  }
  return 0;
}
