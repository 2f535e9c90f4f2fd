// Figure 7(c): AoSoA VGH throughput as a function of tile size Nb at fixed N
// — the cache-geometry fingerprint of the host.  The paper sees a sharp L3
// peak at Nb=64 on BDW/BGQ and a broad Nb=512 optimum on KNL/KNC.
#include <iostream>

#include "common/table.h"
#include "core/tuner.h"
#include "bench_common.h"

int main(int argc, char** argv)
{
  using namespace mqc;
  using namespace mqc::bench;
  const BenchScale scale = bench_scale();
  auto json = JsonReporter::from_args(argc, argv, "fig7c_tilesize");
  const int n = scale.n_single;

  const auto grid = Grid3D<float>::cube(scale.grid, 1.0f);
  auto coefs = make_random_storage<float>(grid, n, 2042);

  print_banner(std::cout,
               "Figure 7(c): AoSoA VGH throughput vs tile size Nb at N=" + std::to_string(n));
  const auto sweep =
      tune_tile_size_vgh(*coefs, default_tile_candidates(n, 16), scale.ns, scale.min_seconds);

  TablePrinter tp({"Nb", "tiles", "input set (MB)", "T (Meval/s)", "relative"});
  for (std::size_t i = 0; i < sweep.tiles.size(); ++i) {
    const int nb = sweep.tiles[i];
    const double set_mb = 4.0 * scale.grid * scale.grid * scale.grid * nb / 1e6;
    tp.add_row({TablePrinter::cell(nb), TablePrinter::cell((n + nb - 1) / nb),
                TablePrinter::cell(set_mb, 1), TablePrinter::cell(sweep.throughputs[i] / 1e6, 2),
                TablePrinter::cell(sweep.throughputs[i] / sweep.best_throughput, 2)});
    json.add("vgh_aosoa_nb" + std::to_string(nb), sweep.throughputs[i], "eval/s");
  }
  tp.print(std::cout);
  json.add("best_nb", sweep.best_tile, "splines");
  // The L1d-resolved default (core/tuner.h) against the sweep: a model Nb of
  // N or more is one untiled tile, the sweep's last candidate.
  const int model_nb = host_tile_size<float>();
  std::size_t model_row = sweep.tiles.size() - 1;
  for (std::size_t i = 0; i < sweep.tiles.size(); ++i)
    if (sweep.tiles[i] == model_nb)
      model_row = i;
  const double model_rel = sweep.throughputs[model_row] / sweep.best_throughput;
  json.add("model_nb", model_nb, "splines");
  json.add("model_nb_relative", model_rel, "ratio");
  std::cout << "\nbest Nb on this host: " << sweep.best_tile
            << "  (paper: 64 on BDW/BGQ [L3-resident working set], 512 on KNC/KNL)\n"
            << "L1d-resolved default Nb: " << model_nb << " (" << sweep.tiles[model_row]
            << " at N=" << n << "), " << TablePrinter::cell(model_rel, 2)
            << "x of the sweep's best\n";
  if (!json.write())
    std::cout << "warning: could not write " << json.path() << "\n";
  return 0;
}
