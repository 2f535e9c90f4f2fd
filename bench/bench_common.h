// Shared measurement harness for the bench binaries.
//
// Every figure/table bench follows the same recipe (paper §VI): Nw walkers
// (one per OpenMP thread by default) share a read-only coefficient table and
// each evaluates a kernel over ns random positions; the reported metric is
// the node throughput T_X = Nw * N * ns_total / t_X in orbital evaluations
// per second.
//
// Scale control: MQC_BENCH_SCALE=quick (default) keeps the N sweep and
// measurement times small enough for CI; MQC_BENCH_SCALE=full reproduces the
// paper's 128..4096 sweep on the 48^3 grid (needs ~4 GB and tens of minutes).
#ifndef MQC_BENCH_BENCH_COMMON_H
#define MQC_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "common/timer.h"
#include "core/bspline_aos.h"
#include "core/bspline_soa.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "qmc/walker.h"

namespace mqc::bench {

enum class Layout
{
  AoS,
  SoA,
  SoANoZUnroll, ///< ablation: SoA outputs, baseline 64-subcube loop
  AoSoA
};

inline const char* layout_name(Layout l)
{
  switch (l) {
  case Layout::AoS:
    return "AoS";
  case Layout::SoA:
    return "SoA";
  case Layout::SoANoZUnroll:
    return "SoA(no z-unroll)";
  case Layout::AoSoA:
    return "AoSoA";
  }
  return "?";
}

inline const char* kernel_name(DerivLevel k)
{
  switch (k) {
  case DerivLevel::V:
    return "V";
  case DerivLevel::VGL:
    return "VGL";
  case DerivLevel::VGH:
    return "VGH";
  }
  return "?";
}

struct BenchScale
{
  std::vector<int> n_sweep;  ///< spline counts for N sweeps
  int grid = 48;             ///< grid points per dimension (paper: 48)
  int ns = 64;               ///< random positions per walker per repetition
  double min_seconds = 0.25; ///< minimum measurement window per point
  int n_single = 512;        ///< N for single-size experiments (paper: 2048)
};

/// Read MQC_BENCH_SCALE from the environment.
///
/// Both modes keep the paper's 48^3 grid: the cache-blocking phenomenon
/// (Fig. 7(b)/(c)) only appears once the coefficient table exceeds the LLC,
/// which on hosts with large L3 requires N >= ~2048 at this grid.  Quick
/// mode trims the sweep and the measurement windows, not the physics.
inline BenchScale bench_scale()
{
  const char* env = std::getenv("MQC_BENCH_SCALE");
  const std::string mode = env ? env : "quick";
  BenchScale s;
  if (mode == "full") {
    s.n_sweep = {128, 256, 512, 1024, 2048, 4096};
    s.grid = 48;
    s.ns = 128;
    s.min_seconds = 1.0;
    s.n_single = 2048;
  } else {
    s.n_sweep = {128, 512, 2048};
    s.grid = 48;
    s.ns = 24;
    s.min_seconds = 0.2;
    s.n_single = 2048;
  }
  return s;
}

/// Random evaluation positions covering the grid domain.
template <typename T>
struct Positions
{
  std::vector<T> x, y, z;
};

template <typename T>
Positions<T> random_eval_positions(const Grid3D<T>& grid, int ns, std::uint64_t seed)
{
  Positions<T> p;
  Xoshiro256 rng(seed);
  p.x.resize(static_cast<std::size_t>(ns));
  p.y.resize(static_cast<std::size_t>(ns));
  p.z.resize(static_cast<std::size_t>(ns));
  for (int s = 0; s < ns; ++s) {
    p.x[static_cast<std::size_t>(s)] = static_cast<T>(rng.uniform(grid.x.start, grid.x.end));
    p.y[static_cast<std::size_t>(s)] = static_cast<T>(rng.uniform(grid.y.start, grid.y.end));
    p.z[static_cast<std::size_t>(s)] = static_cast<T>(rng.uniform(grid.z.start, grid.z.end));
  }
  return p;
}

/// Throughput (orbital evaluations / second, whole node) for one
/// (layout, kernel) combination.  One walker per OpenMP thread; each walker
/// evaluates `ns` random positions per repetition, and the repetition count
/// is calibrated so the measurement window is at least `min_seconds`.
double measure_throughput(Layout layout, DerivLevel kernel, const CoefStorage<float>& full, int tile,
                          int ns, double min_seconds, std::uint64_t seed = 7);

/// Free-function used by the roofline bench: seconds per single evaluation
/// (one walker, serial).
double measure_seconds_per_eval(Layout layout, DerivLevel kernel, const CoefStorage<float>& full,
                                int tile, int ns, double min_seconds, std::uint64_t seed = 7);

/// Machine-readable result emission for the tier-1-adjacent benches: pass
/// `--json <path>` (or `--json=<path>`) to a bench binary and it writes its
/// headline numbers as
///   {"bench": "<name>", "rows": [{"name": ..., "value": ..., "unit": ...}]}
/// alongside the human-readable table — e.g. `BENCH_fig7b.json` for the perf
/// trajectory.  Without the flag the reporter is inert.
class JsonReporter
{
public:
  /// Parse `--json <path>` / `--json=<path>` out of argv (first match wins).
  static JsonReporter from_args(int argc, char** argv, const std::string& bench_name);

  void add(const std::string& name, double value, const std::string& unit);
  /// Write the collected rows; no-op (returns true) when no path was given.
  bool write() const;
  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
  struct Row
  {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::string bench_;
  std::string path_;
  std::vector<Row> rows_;
};

} // namespace mqc::bench

#endif // MQC_BENCH_BENCH_COMMON_H
