// AoSoA ("tiled") engine — paper §V-B, Opt B.
//
// The orbital set is split along the spline dimension N into M tiles of
// nominal size Nb.  Each tile is a self-contained BsplineSoA whose
// coefficient table is (nx+3)(ny+3)(nz+3) x Nb — the blocked read working set
// — and whose outputs land in a slice of the walker's component streams.
// Tiles share nothing and can be evaluated in any order by any thread, which
// is exactly the parallelism Opt C (nested threading) exploits.
//
// Slice layout: tile t writes component q at  base + q*stride + offset(t)
// where offset(t) is the sum of padded sizes of tiles < t.  A requested
// width is rounded up to a whole number of SIMD lanes (tile_width), so every
// tile except possibly the last is padding-free: each slice is 64-byte
// aligned, offset(t) = t*Nb, orbital n lands at output index n exactly as in
// BsplineSoA, and the union of slices is exactly the padded full set.
//
// Tables: the engine reads its tiles' tables and holds nothing else.  Built
// from a shared table of N <= Nb splines it adopts that table as its only
// tile (no copy: padding lanes are 0 in every table this library builds, so
// the table IS the tile a split would copy).  Built from pre-split tiles
// (make_random_tiles fills them straight from the generator; a shard
// replica copies them) it adopts those.  Only the const-reference
// constructor copies (on the machine's team, one (tile, x-plane) item at a
// time): it is the reference split the tests compare against.
//
// Precision split: like BsplineSoA, the element type is two parameters
// `MultiBspline<TStore, TCompute>` (storage/interface type vs internal
// weight/accumulation type); the historical `MultiBspline<T>` is the
// TCompute = TStore default and is bit-for-bit unchanged.  All tiles share
// one TCompute evaluation grid, so one weight set per position still serves
// every tile on the mixed path.
#ifndef MQC_CORE_MULTI_BSPLINE_H
#define MQC_CORE_MULTI_BSPLINE_H

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/threading.h"
#include "common/vec3.h"
#include "core/bspline_soa.h"
#include "core/coef_storage.h"

namespace mqc {

/// The AoSoA tile width used for a requested @p tile_size: rounded up to a
/// whole number of SIMD lanes of T, so every tile but the last is
/// padding-free.  Tile width is trajectory-neutral, so rounding changes no
/// result and rejects nothing.  Throws std::invalid_argument below 1: a zero
/// or negative width (a hostile wisdom entry, say) never reaches the split.
template <typename T>
[[nodiscard]] int tile_width(int tile_size)
{
  if (tile_size < 1)
    throw std::invalid_argument("MultiBspline: tile_size must be >= 1, got " +
                                std::to_string(tile_size));
  constexpr long long lanes = static_cast<long long>(simd_lanes<T>);
  const long long up = (tile_size + lanes - 1) / lanes * lanes;
  return static_cast<int>(std::min(up, std::numeric_limits<int>::max() / lanes * lanes));
}

/// Spline counts of the tiles of a @p num_splines table split at
/// @p tile_size: full tiles of tile_width<T>(tile_size), then the remainder.
template <typename T>
[[nodiscard]] std::vector<int> tile_counts(int num_splines, int tile_size)
{
  const int nb = tile_width<T>(tile_size);
  std::vector<int> counts;
  for (int left = num_splines; left > 0; left -= nb)
    counts.push_back(std::min(nb, left));
  return counts;
}

template <typename TStore, typename TCompute = TStore>
class MultiBspline
{
public:
  using store_type = TStore;
  using compute_type = TCompute;
  using tile_type = BsplineSoA<TStore, TCompute>;
  using weights_type = typename tile_type::weights_type;

  /// The reference split: copy @p full into tiles of tile_width(tile_size)
  /// splines; the last tile absorbs any remainder of num_splines.
  MultiBspline(const CoefStorage<TStore>& full, int tile_size)
      : MultiBspline(split(full, tile_size), tile_size)
  {
  }

  /// Adopt @p full: when its splines fit one tile it IS the only tile (no
  /// copy); otherwise it is split as above, and a table the caller moved in
  /// is freed once the engine is built.
  MultiBspline(std::shared_ptr<const CoefStorage<TStore>> full, int tile_size)
      : MultiBspline(full->num_splines() <= tile_width<TStore>(tile_size)
                         ? CoefTables<TStore>{std::move(full)}
                         : split(*full, tile_size),
                     tile_size)
  {
  }

  /// Adopt pre-split @p tiles (make_random_tiles, socket replicas): tile t
  /// holds splines [t*Nb, t*Nb + count) on one grid.  Throws
  /// std::invalid_argument when they are not the tile_counts split.
  MultiBspline(CoefTables<TStore> tiles, int tile_size) : tile_size_(tile_width<TStore>(tile_size))
  {
    if (tiles.empty())
      throw std::invalid_argument("MultiBspline: no tiles");
    const Grid3D<TStore>& g = tiles.front()->grid();
    std::size_t offset = 0;
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const CoefStorage<TStore>& c = *tiles[t];
      if (c.grid().x.num != g.x.num || c.grid().y.num != g.y.num || c.grid().z.num != g.z.num ||
          c.num_splines() > tile_size_ || (t + 1 < tiles.size() && c.num_splines() != tile_size_))
        throw std::invalid_argument("MultiBspline: tiles are not a split at width " +
                                    std::to_string(tile_size_));
      num_splines_ += c.num_splines();
      offsets_.push_back(offset);
      offset += c.padded_splines();
      tiles_.emplace_back(std::move(tiles[t]));
    }
    padded_splines_ = offset;
  }

  [[nodiscard]] int num_splines() const noexcept { return num_splines_; }
  [[nodiscard]] int tile_size() const noexcept { return tile_size_; }
  [[nodiscard]] int num_tiles() const noexcept { return static_cast<int>(tiles_.size()); }
  /// Shared storage grid (identical across tiles).
  [[nodiscard]] const Grid3D<TStore>& grid() const noexcept
  {
    return tiles_.front().coefs().grid();
  }
  /// Shared TCompute evaluation grid: one weight set per position serves
  /// every tile — the basis of the multi-position layer.
  [[nodiscard]] const Grid3D<TCompute>& eval_grid() const noexcept
  {
    return tiles_.front().eval_grid();
  }
  /// Total slice length of one output component (also the natural stride).
  [[nodiscard]] std::size_t padded_splines() const noexcept { return padded_splines_; }
  [[nodiscard]] std::size_t out_stride() const noexcept { return padded_splines_; }
  [[nodiscard]] std::size_t tile_offset(int t) const noexcept
  {
    return offsets_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const tile_type& tile(int t) const noexcept
  {
    return tiles_[static_cast<std::size_t>(t)];
  }
  /// Bytes of coefficient data per tile — the blocked input working set
  /// 4*Ng*Nb the paper's cache analysis is written in terms of.
  [[nodiscard]] std::size_t tile_bytes(int t) const noexcept
  {
    return tiles_[static_cast<std::size_t>(t)].coefs().size_bytes();
  }
  /// Total coefficient bytes across all tiles — what a full-set sweep streams.
  [[nodiscard]] std::size_t coef_bytes() const noexcept
  {
    std::size_t total = 0;
    for (const auto& t : tiles_)
      total += t.coef_bytes();
    return total;
  }

  // -- per-tile kernels (the unit of nested-threading work) ---------------

  void evaluate_v_tile(int t, TStore x, TStore y, TStore z, TStore* v) const
  {
    tiles_[static_cast<std::size_t>(t)].evaluate_v(x, y, z, v + offsets_[static_cast<std::size_t>(t)]);
  }

  void evaluate_vgl_tile(int t, TStore x, TStore y, TStore z, TStore* v, TStore* g, TStore* l,
                         std::size_t stride) const
  {
    const std::size_t off = offsets_[static_cast<std::size_t>(t)];
    tiles_[static_cast<std::size_t>(t)].evaluate_vgl(x, y, z, v + off, g + off, l + off, stride);
  }

  void evaluate_vgh_tile(int t, TStore x, TStore y, TStore z, TStore* v, TStore* g, TStore* h,
                         std::size_t stride) const
  {
    const std::size_t off = offsets_[static_cast<std::size_t>(t)];
    tiles_[static_cast<std::size_t>(t)].evaluate_vgh(x, y, z, v + off, g + off, h + off, stride);
  }

  // -- multi-position tile kernels (unit of position-blocked work) --------
  //
  // Evaluate `count` positions (precomputed weight sets, shared grid)
  // against tile t in one pass: the tile's 4*Ng*Nb-byte coefficient slice is
  // streamed from memory once and stays cache-resident for all `count`
  // positions.  Position p writes into the tile's slice of v[p] (g[p], ...).

  void evaluate_v_tile_multi(int t, const weights_type* w, int count, TStore* const* v) const
  {
    const std::size_t off = offsets_[static_cast<std::size_t>(t)];
    const tile_type& tile = tiles_[static_cast<std::size_t>(t)];
    for (int p = 0; p < count; ++p)
      tile.evaluate_v_w(w[p], v[p] + off);
  }

  void evaluate_vgl_tile_multi(int t, const weights_type* w, int count, TStore* const* v,
                               TStore* const* g, TStore* const* l, std::size_t stride) const
  {
    const std::size_t off = offsets_[static_cast<std::size_t>(t)];
    const tile_type& tile = tiles_[static_cast<std::size_t>(t)];
    for (int p = 0; p < count; ++p)
      tile.evaluate_vgl_w(w[p], v[p] + off, g[p] + off, l[p] + off, stride);
  }

  void evaluate_vgh_tile_multi(int t, const weights_type* w, int count, TStore* const* v,
                               TStore* const* g, TStore* const* h, std::size_t stride) const
  {
    const std::size_t off = offsets_[static_cast<std::size_t>(t)];
    const tile_type& tile = tiles_[static_cast<std::size_t>(t)];
    for (int p = 0; p < count; ++p)
      tile.evaluate_vgh_w(w[p], v[p] + off, g[p] + off, h[p] + off, stride);
  }

  // -- whole-set multi-position kernels (serial tile-outer loop) ----------
  //
  // All `count` weight sets are computed once up front and reused by every
  // tile; each tile's coefficient slice is then swept exactly once for the
  // whole block.  Compare the single-position whole-set kernels below,
  // which stream the entire table once *per position*.

  void evaluate_v_multi(const Vec3<TStore>* pos, int count, TStore* const* v) const
  {
    std::vector<weights_type> w(static_cast<std::size_t>(count));
    compute_weights_v_batch(eval_grid(), pos, count, w.data());
    for (int t = 0; t < num_tiles(); ++t)
      evaluate_v_tile_multi(t, w.data(), count, v);
  }

  void evaluate_vgl_multi(const Vec3<TStore>* pos, int count, TStore* const* v, TStore* const* g,
                          TStore* const* l, std::size_t stride) const
  {
    std::vector<weights_type> w(static_cast<std::size_t>(count));
    compute_weights_vgh_batch(eval_grid(), pos, count, w.data());
    for (int t = 0; t < num_tiles(); ++t)
      evaluate_vgl_tile_multi(t, w.data(), count, v, g, l, stride);
  }

  void evaluate_vgh_multi(const Vec3<TStore>* pos, int count, TStore* const* v, TStore* const* g,
                          TStore* const* h, std::size_t stride) const
  {
    std::vector<weights_type> w(static_cast<std::size_t>(count));
    compute_weights_vgh_batch(eval_grid(), pos, count, w.data());
    for (int t = 0; t < num_tiles(); ++t)
      evaluate_vgh_tile_multi(t, w.data(), count, v, g, h, stride);
  }

  // -- whole-set kernels (serial tile loop; Fig. 6 with one thread) -------

  void evaluate_v(TStore x, TStore y, TStore z, TStore* v) const
  {
    for (int t = 0; t < num_tiles(); ++t)
      evaluate_v_tile(t, x, y, z, v);
  }

  void evaluate_vgl(TStore x, TStore y, TStore z, TStore* v, TStore* g, TStore* l,
                    std::size_t stride) const
  {
    for (int t = 0; t < num_tiles(); ++t)
      evaluate_vgl_tile(t, x, y, z, v, g, l, stride);
  }

  void evaluate_vgh(TStore x, TStore y, TStore z, TStore* v, TStore* g, TStore* h,
                    std::size_t stride) const
  {
    for (int t = 0; t < num_tiles(); ++t)
      evaluate_vgh_tile(t, x, y, z, v, g, h, stride);
  }

private:
  /// The copy split on the machine's team, one (tile, x-plane) item per
  /// iteration: items write disjoint rows, so any team size copies the same
  /// bytes, and the copying threads are the first to touch the tiles' pages.
  static CoefTables<TStore> split(const CoefStorage<TStore>& full, int tile_size)
  {
    std::vector<std::shared_ptr<CoefStorage<TStore>>> tiles;
    for (const int count : tile_counts<TStore>(full.num_splines(), tile_size))
      tiles.push_back(std::make_shared<CoefStorage<TStore>>(full.grid(), count));
    const int planes = full.grid().x.num + 3;
    const int nb = tile_width<TStore>(tile_size);
    team_for(TeamHandle::whole_machine(), static_cast<int>(tiles.size()) * planes, [&](int item) {
      const int t = item / planes;
      CoefStorage<TStore>& tile = *tiles[static_cast<std::size_t>(t)];
      tile.assign_spline_range_plane(full, t * nb, tile.num_splines(), item % planes);
    });
    return {tiles.begin(), tiles.end()};
  }

  int num_splines_ = 0;
  int tile_size_;
  std::size_t padded_splines_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<tile_type> tiles_;
};

} // namespace mqc

#endif // MQC_CORE_MULTI_BSPLINE_H
