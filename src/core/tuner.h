// Tile-size auto-tuning with FFTW-style "wisdom" persistence (paper §VI:
// "We plan to provide an auto-tuning capability using miniQMC to guide the
// production runs similar to FFTW's solution using wisdom files").
//
// The optimal Nb depends only on the architecture's cache hierarchy, not on
// the problem size N (paper §VI-B), so one tuning run per (kernel, precision,
// grid) is recorded and reused.
//
// The batched multi-position path adds a second knob: the position block P —
// how many walkers share one pass over a tile's coefficient slice
// (core/batched.h).  Nb and P trade against each other (Nb sets the input
// working set 4*Ng*Nb, P multiplies the output working set 40*P*Nb), so
// tune_tile_block_vgh probes them jointly and Wisdom persists the pair under
// a versioned "v2:" key.
#ifndef MQC_CORE_TUNER_H
#define MQC_CORE_TUNER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/sysinfo.h"
#include "common/threading.h"
#include "common/timer.h"
#include "core/batched.h"
#include "core/multi_bspline.h"
#include "core/synthetic_orbitals.h"
#include "qmc/walker.h"

namespace mqc {

/// Persistent map from tuning keys to the winning configuration.
class Wisdom
{
public:
  struct Entry
  {
    int tile_size = 0;
    double throughput = 0.0; ///< orbital evaluations per second at tuning time
    int pos_block = 1;       ///< walkers per tile pass (1 == single-position path)
    int crowd_size = 0;      ///< tuned crowd size for run_miniqmc (0 = not tuned)
    int inner_threads = 0;   ///< tuned inner team size per crowd (0 = not tuned)
    /// Precision family the knobs were tuned under: 0 = native, 1 = mixed
    /// (PrecisionPath).  Consumers only apply an entry tuned for their own
    /// resolved precision — a pos_block tuned against DP-table bandwidth is
    /// the wrong knob for a half-size mixed table.
    int precision = 0;
  };

  /// Legacy (v1) key: single-position tile tuning.
  static std::string make_key(const std::string& kernel, const std::string& precision,
                              int num_splines, int nx, int ny, int nz);

  /// Versioned (v2) key for the joint (Nb, P) tuning of the batched
  /// multi-position path; @p num_walkers is the population size the block
  /// size was tuned against.
  static std::string make_key_v2(const std::string& kernel, const std::string& precision,
                                 int num_splines, int nx, int ny, int nz, int num_walkers);

  void insert(const std::string& key, Entry entry) { entries_[key] = entry; }
  [[nodiscard]] std::optional<Entry> lookup(const std::string& key) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Outcome of the most recent load() on this object.  Robustness surface:
  /// a truncated or garbage wisdom file must never crash, and must never
  /// silently half-load — load() is all-or-nothing, and this status says
  /// what happened so callers can report the fallback to defaults.
  struct LoadStatus
  {
    bool attempted = false; ///< a load() ran on this object
    bool ok = false;        ///< file opened and every line parsed cleanly
    int entries_loaded = 0; ///< entries merged by the last successful load
    int lines_rejected = 0; ///< malformed lines found in a rejected file
    std::string detail;     ///< first failure diagnosis (empty when ok)
  };

  [[nodiscard]] const LoadStatus& load_status() const noexcept { return load_status_; }

  /// Plain-text persistence, one entry per line, v5 format:
  ///   "key tile_size pos_block crowd_size inner_threads precision throughput"
  bool save(const std::string& path) const;
  /// All-or-nothing load: a file with ANY malformed line (bad token, wrong
  /// field count, non-integral/negative knob, non-finite throughput) merges
  /// NOTHING and returns false — existing entries and tuned defaults stay
  /// untouched, and load_status() carries the line-level diagnosis.  Only
  /// v5 lines load: a v1-v4 line (two to five numeric fields) rejects the
  /// file with a detail naming its field count.
  bool load(const std::string& path);

private:
  std::map<std::string, Entry> entries_;
  LoadStatus load_status_;
};

/// Result of one tile-size sweep.
struct TuneResult
{
  int best_tile = 0;
  double best_throughput = 0.0;
  std::vector<int> tiles;             ///< candidates probed
  std::vector<double> throughputs;    ///< T = N*ns/t for each candidate
};

/// Result of one joint (tile size Nb, position block P) sweep.  Entry i of
/// the three parallel vectors is the probe at (tiles[i], blocks[i]).
struct TuneResult2D
{
  int best_tile = 0;
  int best_block = 0;
  double best_throughput = 0.0;
  std::vector<int> tiles;
  std::vector<int> blocks;
  std::vector<double> throughputs;
};

/// Default candidate list: powers of two from the SIMD lane count up to N.
std::vector<int> default_tile_candidates(int num_splines, int min_tile);

/// Default AoSoA tile width Nb from the host's L1d (paper §V-B: Nb is a
/// property of the cache hierarchy, not of N).  Nb is the largest
/// power-of-two multiple of simd_lanes<T> whose one-tile VGH output block —
/// 10 streams (V, 3 G, 6 H) x Nb x sizeof(T) — fits in one hardware thread's
/// share of L1d, l1d_bytes / threads_per_core; never below one lane block.
/// An unknown L1d (0) falls back to 128.  Longer tiles mean longer
/// contiguous coefficient runs per (i,j) term (4 * Nb * sizeof(T) bytes),
/// which is what the random-position stream is bound by once the table
/// leaves the LLC.
template <typename T>
int l1d_tile_size(std::size_t l1d_bytes, int threads_per_core)
{
  constexpr std::size_t kVghStreams = 10;
  if (l1d_bytes == 0)
    return 128;
  const std::size_t share = l1d_bytes / static_cast<std::size_t>(std::max(1, threads_per_core));
  const std::size_t fits = share / (kVghStreams * sizeof(T));
  std::size_t nb = simd_lanes<T>;
  while (2 * nb <= fits && 2 * nb <= static_cast<std::size_t>(std::numeric_limits<int>::max()))
    nb *= 2;
  return static_cast<int>(nb);
}

/// l1d_tile_size for this host — query_system_info().l1d_bytes shared by
/// machine_topology().smt hardware threads — resolved once per process.
/// The default of MiniQMCConfig::tile_size; an explicit tile_size or a
/// wisdom entry overrides it.
template <typename T>
int host_tile_size()
{
  static const int nb = l1d_tile_size<T>(query_system_info().l1d_bytes, machine_topology().smt);
  return nb;
}

/// Default position-block candidates: powers of two from 1 up to the
/// population size (inclusive).
std::vector<int> default_block_candidates(int num_walkers);

// The miniQMC driver tuning built on these sweeps (tune_miniqmc,
// tune_crowd_size, miniqmc_wisdom_key) lives in qmc/miniqmc_tuner.h: it
// probes the real driver, so it belongs to the qmc layer, not core.

/// Probe VGH throughput for each candidate tile size over @p ns random
/// positions and return the sweep (the Fig. 7(c) experiment as a library
/// call).  min_seconds bounds the per-candidate measurement time.
template <typename T>
TuneResult tune_tile_size_vgh(const CoefStorage<T>& full, const std::vector<int>& candidates,
                              int ns = 128, double min_seconds = 0.05, std::uint64_t seed = 11)
{
  TuneResult result;
  Xoshiro256 rng(seed);
  const auto& g = full.grid();
  std::vector<T> px(static_cast<std::size_t>(ns)), py(px), pz(px);
  for (int s = 0; s < ns; ++s) {
    px[static_cast<std::size_t>(s)] = static_cast<T>(rng.uniform(g.x.start, g.x.end));
    py[static_cast<std::size_t>(s)] = static_cast<T>(rng.uniform(g.y.start, g.y.end));
    pz[static_cast<std::size_t>(s)] = static_cast<T>(rng.uniform(g.z.start, g.z.end));
  }
  for (int nb : candidates) {
    MultiBspline<T> engine(full, nb);
    WalkerSoA<T> w(engine.out_stride());
    const double sec = time_per_iteration(
        [&] {
          for (int s = 0; s < ns; ++s)
            engine.evaluate_vgh(px[static_cast<std::size_t>(s)], py[static_cast<std::size_t>(s)],
                                pz[static_cast<std::size_t>(s)], w.v.data(), w.g.data(),
                                w.h.data(), w.stride);
        },
        min_seconds, 2);
    const double throughput = static_cast<double>(full.num_splines()) * ns / sec;
    result.tiles.push_back(nb);
    result.throughputs.push_back(throughput);
    if (throughput > result.best_throughput) {
      result.best_throughput = throughput;
      result.best_tile = nb;
    }
  }
  return result;
}

/// Jointly probe (tile size Nb, position block P) for the fused batched VGH
/// path over a population of @p num_walkers random positions (the knob pair
/// the position-blocked driver in core/batched.h exposes).  Block candidates
/// larger than the population are skipped.
template <typename T>
TuneResult2D tune_tile_block_vgh(const CoefStorage<T>& full,
                                 const std::vector<int>& tile_candidates,
                                 const std::vector<int>& block_candidates, int num_walkers = 32,
                                 double min_seconds = 0.05, std::uint64_t seed = 11)
{
  TuneResult2D result;
  Xoshiro256 rng(seed);
  const auto& g = full.grid();
  std::vector<Vec3<T>> positions(static_cast<std::size_t>(num_walkers));
  for (auto& r : positions)
    r = Vec3<T>{static_cast<T>(rng.uniform(g.x.start, g.x.end)),
                static_cast<T>(rng.uniform(g.y.start, g.y.end)),
                static_cast<T>(rng.uniform(g.z.start, g.z.end))};
  for (int nb : tile_candidates) {
    MultiBspline<T> engine(full, nb);
    std::vector<std::unique_ptr<WalkerSoA<T>>> outs;
    std::vector<WalkerSoA<T>*> out_ptrs;
    for (int w = 0; w < num_walkers; ++w) {
      outs.push_back(std::make_unique<WalkerSoA<T>>(engine.out_stride()));
      out_ptrs.push_back(outs.back().get());
    }
    for (int pb : block_candidates) {
      if (pb > num_walkers)
        continue;
      const double sec = time_per_iteration(
          [&] { evaluate_batched(engine, DerivLevel::VGH, positions, out_ptrs, pb); },
          min_seconds, 2);
      const double throughput =
          static_cast<double>(full.num_splines()) * num_walkers / sec;
      result.tiles.push_back(nb);
      result.blocks.push_back(pb);
      result.throughputs.push_back(throughput);
      if (throughput > result.best_throughput) {
        result.best_throughput = throughput;
        result.best_tile = nb;
        result.best_block = pb;
      }
    }
  }
  return result;
}

} // namespace mqc

#endif // MQC_CORE_TUNER_H
