// Figure 7(a): VGH throughput (orbital evaluations/second, higher is better)
// before and after the AoS->SoA output-layout transformation, across problem
// sizes N.  The paper's signature: 2-4x speedups for small/medium N that
// fade as N grows and the output working set falls out of cache (the gap
// tiling closes in Fig. 7(b)).
#include <iostream>

#include "common/table.h"
#include "bench_common.h"

int main(int argc, char** argv)
{
  using namespace mqc;
  using namespace mqc::bench;
  const BenchScale scale = bench_scale();
  auto json = JsonReporter::from_args(argc, argv, "fig7a_soa");

  print_banner(std::cout, "Figure 7(a): VGH throughput, AoS vs SoA (grid " +
                              std::to_string(scale.grid) + "^3)");
  TablePrinter tp({"N", "T_AoS (Meval/s)", "T_SoA (Meval/s)", "speedup"});
  for (int n : scale.n_sweep) {
    const auto grid = Grid3D<float>::cube(scale.grid, 1.0f);
    auto coefs = make_random_storage<float>(grid, n, 7000 + static_cast<std::uint64_t>(n));
    const double t_aos =
        measure_throughput(Layout::AoS, DerivLevel::VGH, *coefs, n, scale.ns, scale.min_seconds);
    const double t_soa =
        measure_throughput(Layout::SoA, DerivLevel::VGH, *coefs, n, scale.ns, scale.min_seconds);
    tp.add_row({TablePrinter::cell(n), TablePrinter::cell(t_aos / 1e6, 2),
                TablePrinter::cell(t_soa / 1e6, 2), TablePrinter::cell(t_soa / t_aos, 2)});
    json.add("vgh_aos_n" + std::to_string(n), t_aos, "eval/s");
    json.add("vgh_soa_n" + std::to_string(n), t_soa, "eval/s");
  }
  tp.print(std::cout);
  std::cout << "\nShape check (paper): SoA > AoS with the largest gains at small/medium N;\n"
               "the advantage shrinks as N grows beyond cache capacity.\n";
  if (!json.write())
    std::cout << "warning: could not write " << json.path() << "\n";
  return 0;
}
