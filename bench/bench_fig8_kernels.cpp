// Figure 8: normalized speedup of all three kernels (V, VGL, VGH) with the
// AoSoA transformation, using the original AoS implementation as reference,
// across problem sizes.  Paper (KNL, N=4096): 1.85x (V), 6.4x (VGL),
// 2.5x (VGH); VGL gains most because its baseline also lacked the basic
// optimizations (z-unroll, hoisted temporaries).
#include <iostream>

#include "common/table.h"
#include "core/tuner.h"
#include "bench_common.h"

int main()
{
  using namespace mqc;
  using namespace mqc::bench;
  const BenchScale scale = bench_scale();

  const auto tgrid = Grid3D<float>::cube(scale.grid, 1.0f);
  auto tune_coefs = make_random_storage<float>(tgrid, scale.n_sweep.back(), 808);
  const auto tune = tune_tile_size_vgh(*tune_coefs, default_tile_candidates(scale.n_sweep.back(), 16),
                                       scale.ns, scale.min_seconds / 4);
  const int nb = tune.best_tile;
  tune_coefs.reset();

  print_banner(std::cout, "Figure 8: normalized kernel speedups, AoSoA vs AoS baseline (Nb=" +
                              std::to_string(nb) + ")");
  TablePrinter tp({"N", "V speedup", "VGL speedup", "VGH speedup"});
  for (int n : scale.n_sweep) {
    const auto grid = Grid3D<float>::cube(scale.grid, 1.0f);
    auto coefs = make_random_storage<float>(grid, n, 8000 + static_cast<std::uint64_t>(n));
    const int tile = std::min(nb, n);
    std::vector<std::string> row{TablePrinter::cell(n)};
    for (DerivLevel k : {DerivLevel::V, DerivLevel::VGL, DerivLevel::VGH}) {
      const double base =
          measure_throughput(Layout::AoS, k, *coefs, tile, scale.ns, scale.min_seconds);
      const double opt =
          measure_throughput(Layout::AoSoA, k, *coefs, tile, scale.ns, scale.min_seconds);
      row.push_back(TablePrinter::cell(opt / base, 2));
    }
    tp.add_row(std::move(row));
  }
  tp.print(std::cout);
  std::cout << "\nShape check (paper, KNL N=4096): V 1.85x, VGL 6.4x, VGH 2.5x.\n"
               "VGL gains most (baseline VGL also lacked z-unroll and hoisted temps);\n"
               "V gains least (single output stream, benefits only from tiling).\n";
  return 0;
}
