// Domain scenario 3: strong scaling within a walker (paper §V-C, Fig. 9).
//
// Demonstrates the nested-threading API: the same fixed amount of Monte
// Carlo work (one walker's VGH evaluations) is executed by teams of
// different sizes, and the time-to-solution per walker shrinks with nth.
//
//   ./examples/strong_scaling [N] [Nb] [grid]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/threading.h"
#include "core/synthetic_orbitals.h"
#include "qmc/nested_driver.h"

int main(int argc, char** argv)
{
  using namespace mqc;
  const int n = argc > 1 ? std::atoi(argv[1]) : 512;
  const int nb = argc > 2 ? std::atoi(argv[2]) : 32;
  const int ng = argc > 3 ? std::atoi(argv[3]) : 32;

  const auto grid = Grid3D<float>::cube(ng, 1.0f);
  auto coefs = make_random_storage<float>(grid, n, 31337);
  MultiBspline<float> engine(*coefs, nb);
  std::printf("N=%d orbitals in %d tiles of Nb=%d; host has %d OpenMP threads\n", n,
              engine.num_tiles(), nb, max_threads());

  NestedConfig cfg;
  cfg.ns = 64;
  cfg.niters = 8;
  cfg.kernel = DerivLevel::VGH;
  cfg.num_walkers = 1;

  double t1 = 0.0;
  for (int nth : {1, 2, 4}) {
    if (engine.num_tiles() < nth)
      break;
    cfg.nth = nth;
    const auto res = run_nested(engine, cfg);
    if (nth == 1)
      t1 = res.seconds;
    std::printf("  nth=%d  time %.4f s  speedup %.2fx  (%.1f Meval/s)%s\n", nth, res.seconds,
                t1 / res.seconds, res.throughput / 1e6,
                nth > max_threads() ? "  [oversubscribed]" : "");
  }
  std::printf("\nEach team member owns the tile subset {member, member+nth, ...};\n"
              "no synchronization is needed inside a position evaluation.\n");
  return 0;
}
