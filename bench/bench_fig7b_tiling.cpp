// Figure 7(b): VGH throughput before and after the AoSoA (tiling)
// transformation across problem sizes N, at the host's tuned tile size.
// The paper's signature: tiling restores *sustained* throughput for large N
// where plain SoA degrades.
#include <iostream>

#include "common/table.h"
#include "core/tuner.h"
#include "bench_common.h"

int main(int argc, char** argv)
{
  using namespace mqc;
  using namespace mqc::bench;
  const BenchScale scale = bench_scale();
  auto json = JsonReporter::from_args(argc, argv, "fig7b_tiling");

  // Tune Nb once at the largest sweep size (it is N-independent, §VI-B).
  const auto tgrid = Grid3D<float>::cube(scale.grid, 1.0f);
  auto tune_coefs =
      make_random_storage<float>(tgrid, scale.n_sweep.back(), 4242);
  const auto tune = tune_tile_size_vgh(*tune_coefs, default_tile_candidates(scale.n_sweep.back(), 16),
                                       scale.ns, scale.min_seconds / 4);
  const int nb = tune.best_tile;
  tune_coefs.reset();

  print_banner(std::cout, "Figure 7(b): VGH throughput, SoA vs AoSoA (tile Nb=" +
                              std::to_string(nb) + ")");
  TablePrinter tp({"N", "T_SoA (Meval/s)", "T_AoSoA (Meval/s)", "speedup vs SoA"});
  for (int n : scale.n_sweep) {
    const auto grid = Grid3D<float>::cube(scale.grid, 1.0f);
    auto coefs = make_random_storage<float>(grid, n, 7100 + static_cast<std::uint64_t>(n));
    const int tile = std::min(nb, n);
    const double t_soa =
        measure_throughput(Layout::SoA, DerivLevel::VGH, *coefs, tile, scale.ns, scale.min_seconds);
    const double t_aosoa =
        measure_throughput(Layout::AoSoA, DerivLevel::VGH, *coefs, tile, scale.ns, scale.min_seconds);
    tp.add_row({TablePrinter::cell(n), TablePrinter::cell(t_soa / 1e6, 2),
                TablePrinter::cell(t_aosoa / 1e6, 2), TablePrinter::cell(t_aosoa / t_soa, 2)});
    json.add("vgh_soa_n" + std::to_string(n), t_soa, "eval/s");
    json.add("vgh_aosoa_n" + std::to_string(n), t_aosoa, "eval/s");
  }
  tp.print(std::cout);
  std::cout << "\nShape check (paper): AoSoA holds throughput roughly flat across N\n"
               "(sustained performance), with the biggest wins at the largest N.\n";
  if (!json.write())
    std::cout << "warning: could not write " << json.path() << "\n";
  return 0;
}
