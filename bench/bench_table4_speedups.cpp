// Table IV: speedups of the three optimization steps at fixed N for all
// three kernels.  A = AoS->SoA, B = AoSoA (tuned tile), C = nested threading
// (the paper's C numbers include the strong-scaling factor nth, i.e. the
// reduction in time-to-solution per walker, so C ~ B * nth * efficiency).
#include <iostream>

#include "common/table.h"
#include "core/tuner.h"
#include "qmc/nested_driver.h"
#include "bench_common.h"

int main()
{
  using namespace mqc;
  using namespace mqc::bench;
  const BenchScale scale = bench_scale();
  const int n = scale.n_single;

  const auto grid = Grid3D<float>::cube(scale.grid, 1.0f);
  auto coefs = make_random_storage<float>(grid, n, 2017);

  // Tune the tile size once (the paper reports Nb=64 on BDW/BGQ, 512 on
  // KNL/KNC; the tuner finds this host's value).
  const auto tune = tune_tile_size_vgh(*coefs, default_tile_candidates(n, 16), scale.ns,
                                       scale.min_seconds / 4);
  const int nb = tune.best_tile;

  print_banner(std::cout, "Table IV: speedups at N=" + std::to_string(n) +
                              " (A=AoS->SoA, B=AoSoA, C=nested threading)");
  std::cout << "tuned tile size Nb = " << nb << ", grid " << scale.grid << "^3\n\n";

  const int nth = std::min(2, max_threads()); // threads per walker for Opt C
  TablePrinter tp({"kernel", "opt", "speedup (this host)", "paper BDW", "paper KNC", "paper KNL",
                   "paper BG/Q"});

  const char* paper_a[3] = {"-", "4.2", "1.7"};
  const char* paper_b[3] = {"2.0 (A/B)", "10.2", "3.7"};
  const char* paper_c[3] = {"3.4", "17.2", "6.4"};
  const char* paper_a_knc[3] = {"-", "4.0", "2.6"};
  const char* paper_b_knc[3] = {"1.2 (A/B)", "5.7", "5.2"};
  const char* paper_c_knc[3] = {"5.9", "42.1", "35.2"};
  const char* paper_a_knl[3] = {"-", "5.1", "1.7"};
  const char* paper_b_knl[3] = {"1.3 (A/B)", "5.6", "2.3"};
  const char* paper_c_knl[3] = {"18.7", "80.6", "33.1"};
  const char* paper_a_bgq[3] = {"-", "7.4", "1.9"};
  const char* paper_b_bgq[3] = {"1.3 (A/B)", "9.5", "2.7"};
  const char* paper_c_bgq[3] = {"2.0", "15.8", "5.2"};

  const DerivLevel kernels[3] = {DerivLevel::V, DerivLevel::VGL, DerivLevel::VGH};
  for (int k = 0; k < 3; ++k) {
    const DerivLevel kernel = kernels[k];
    const double t_base =
        measure_throughput(Layout::AoS, kernel, *coefs, nb, scale.ns, scale.min_seconds);
    const double t_soa =
        measure_throughput(Layout::SoA, kernel, *coefs, nb, scale.ns, scale.min_seconds);
    const double t_aosoa =
        measure_throughput(Layout::AoSoA, kernel, *coefs, nb, scale.ns, scale.min_seconds);

    // Opt C: strong scaling with nth threads per walker.  Throughput stays
    // roughly constant while per-walker time-to-solution drops ~nth x; the
    // Table IV convention multiplies the AoSoA speedup by nth * efficiency.
    MultiBspline<float> engine(*coefs, nb);
    NestedConfig ncfg;
    ncfg.ns = scale.ns;
    ncfg.niters = 2;
    ncfg.kernel = kernel;
    ncfg.nth = 1;
    ncfg.num_walkers = 1;
    const auto serial = run_nested(engine, ncfg);
    ncfg.nth = nth;
    const auto nested = run_nested(engine, ncfg);
    const double efficiency = nested.throughput / (serial.throughput * nth);
    const double c_speedup = (t_aosoa / t_base) * nth * efficiency;

    const char** pa = paper_a;
    const char** pb = paper_b;
    const char** pc = paper_c;
    tp.add_row({kernel_name(kernel), "A", TablePrinter::cell(t_soa / t_base, 2), pa[k],
                paper_a_knc[k], paper_a_knl[k], paper_a_bgq[k]});
    tp.add_row({kernel_name(kernel), "B", TablePrinter::cell(t_aosoa / t_base, 2), pb[k],
                paper_b_knc[k], paper_b_knl[k], paper_b_bgq[k]});
    tp.add_row({kernel_name(kernel), "C", TablePrinter::cell(c_speedup, 2), pc[k],
                paper_c_knc[k], paper_c_knl[k], paper_c_bgq[k]});
  }
  tp.print(std::cout);
  std::cout << "\nnth(Nb) for C on this host: " << nth << "(" << nb
            << "); paper row: BDW 2(32), KNC 8(256), KNL 16(128), BG/Q 2(32).\n"
            << "Shape check: A>1 for VGL/VGH, B>=A, C ~ B*nth*efficiency; V gains come\n"
            << "only from B and C (single output stream needs no SoA).\n";
  return 0;
}
