// The read-only 4D B-spline coefficient table P[nx+3][ny+3][nz+3][Npad]
// (paper §IV: "allocation of the P coefficient array is done as 1D array and
// uses an aligned allocator and includes padding to ensure the alignment of
// P[i][j][k] to a 512-bit cache-line boundary").
//
// Index convention (einspline periodic): storage index m along an axis holds
// control point c[(m-1) mod n], so an evaluation in cell i reads the four
// consecutive rows i..i+3 without any modulo in the hot loop.  The spline
// dimension N is innermost and padded to the SIMD lane count, which makes
// every P[i][j][k] row 64-byte aligned.
//
// Memory: every table gets its buffer from the one table allocator
// (core/table_memory.h).  A table of 2 MiB or more is a 2 MiB-aligned
// mapping advised onto transparent huge pages, which the kernel hands out
// zeroed, so no value-init pass runs and the first write is the first touch;
// a smaller one is a zero-filled 64-byte aligned block.  size_bytes() is the
// logical size either way.  Padding lanes (n >= num_splines) hold 0 in every
// table this library builds, fill_random included, so a table of N <= Nb
// splines is byte for byte the tile an AoSoA split would copy out of it, and
// MultiBspline adopts it as its only tile instead of copying it.
#ifndef MQC_CORE_COEF_STORAGE_H
#define MQC_CORE_COEF_STORAGE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/grid.h"
#include "core/table_memory.h"

namespace mqc {

/// Precision family of an orbital evaluation path — an accuracy-affecting,
/// explicitly surfaced decision (never silent; same discipline as
/// EvalPath/TeamPath).
///
///   Native: storage and compute share one element type (today's SP or DP
///           engines) — the default, bit-for-bit identical to the historical
///           behaviour.
///   Mixed:  coefficient tables stored in float (half the streamed bytes of
///           a DP table), all weight products and V/VGL/VGH accumulation
///           carried in double, outputs narrowed once at the final store.
///           Opt-in and deterministic (same seed -> same trajectory), but
///           NOT bit-for-bit with the Native path (different rounding).
enum class PrecisionPath
{
  Native,
  Mixed
};

[[nodiscard]] inline const char* precision_path_name(PrecisionPath p) noexcept
{
  return p == PrecisionPath::Mixed ? "mixed" : "native";
}

template <typename T>
class CoefStorage;

template <typename T>
void fill_random_split(std::span<CoefStorage<T>* const> parts, std::uint64_t seed);

template <typename T>
class CoefStorage
{
public:
  CoefStorage() = default;

  CoefStorage(const Grid3D<T>& grid, int num_splines)
      : grid_(grid), num_splines_(num_splines), n_pad_(aligned_size<T>(num_splines)),
        zs_(n_pad_), ys_(static_cast<std::size_t>(grid.z.num + 3) * zs_),
        xs_(static_cast<std::size_t>(grid.y.num + 3) * ys_),
        data_(static_cast<std::size_t>(grid.x.num + 3) * xs_, sizeof(T))
  {
    assert(num_splines > 0);
  }

  [[nodiscard]] const Grid3D<T>& grid() const noexcept { return grid_; }
  [[nodiscard]] int num_splines() const noexcept { return num_splines_; }
  [[nodiscard]] std::size_t padded_splines() const noexcept { return n_pad_; }
  [[nodiscard]] std::size_t stride_x() const noexcept { return xs_; }
  [[nodiscard]] std::size_t stride_y() const noexcept { return ys_; }
  [[nodiscard]] std::size_t stride_z() const noexcept { return zs_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return data_.size_bytes(); }

  /// Base of the length-Npad coefficient row at padded indices (i,j,k);
  /// i in [0, nx+3) etc.  Guaranteed 64-byte aligned.
  [[nodiscard]] const T* row(int i, int j, int k) const noexcept
  {
    return static_cast<const T*>(data_.data()) + static_cast<std::size_t>(i) * xs_ +
           static_cast<std::size_t>(j) * ys_ + static_cast<std::size_t>(k) * zs_;
  }
  [[nodiscard]] T* row(int i, int j, int k) noexcept
  {
    return static_cast<T*>(data_.data()) + static_cast<std::size_t>(i) * xs_ +
           static_cast<std::size_t>(j) * ys_ + static_cast<std::size_t>(k) * zs_;
  }

  [[nodiscard]] T coef(int i, int j, int k, int n) const noexcept { return row(i, j, k)[n]; }
  void set_coef(int i, int j, int k, int n, T value) noexcept { row(i, j, k)[n] = value; }

  /// Write control point c[(ci,cj,ck)] of spline n into every padded storage
  /// slot that aliases it under the periodic wrap.  Control indices are the
  /// *unshifted* ones in [0, n); the (+1, mod) shift to storage indices and
  /// the replication of the three wrapped layers happen here, once, at build
  /// time — the evaluators never wrap.
  void set_control_point_periodic(int ci, int cj, int ck, int n, T value) noexcept
  {
    const int nx = grid_.x.num, ny = grid_.y.num, nz = grid_.z.num;
    for (int i = ci + 1; i < nx + 3; i += nx)
      for (int j = cj + 1; j < ny + 3; j += ny)
        for (int k = ck + 1; k < nz + 3; k += nz)
          set_coef(i, j, k, n, value);
    // Indices below the first period (storage index 0 holds c[n-1]).
    if (ci == nx - 1)
      for (int j = cj + 1; j < ny + 3; j += ny)
        for (int k = ck + 1; k < nz + 3; k += nz)
          set_coef(0, j, k, n, value);
    if (cj == ny - 1)
      for (int i = ci + 1; i < nx + 3; i += nx)
        for (int k = ck + 1; k < nz + 3; k += nz)
          set_coef(i, 0, k, n, value);
    if (ck == nz - 1)
      for (int i = ci + 1; i < nx + 3; i += nx)
        for (int j = cj + 1; j < ny + 3; j += ny)
          set_coef(i, j, 0, n, value);
    if (ci == nx - 1 && cj == ny - 1)
      for (int k = ck + 1; k < nz + 3; k += nz)
        set_coef(0, 0, k, n, value);
    if (ci == nx - 1 && ck == nz - 1)
      for (int j = cj + 1; j < ny + 3; j += ny)
        set_coef(0, j, 0, n, value);
    if (cj == ny - 1 && ck == nz - 1)
      for (int i = ci + 1; i < nx + 3; i += nx)
        set_coef(i, 0, 0, n, value);
    if (ci == nx - 1 && cj == ny - 1 && ck == nz - 1)
      set_coef(0, 0, 0, n, value);
  }

  /// Fill with deterministic pseudo-random coefficients.  Kernel performance
  /// is independent of coefficient values, so the bench harness uses this to
  /// avoid the (expensive, irrelevant) interpolation solve at N=4096 — the
  /// same shortcut miniQMC takes.  One uniform draw per padded lane, row by
  /// row in storage order; padding lanes discard their draw and store 0.
  void fill_random(std::uint64_t seed)
  {
    CoefStorage* self = this;
    fill_random_split(std::span<CoefStorage* const>(&self, 1), seed);
  }

  /// Copy splines [first, first+count) of @p src into this storage's
  /// [0, count) — the AoSoA tile split.  Grids must match.
  void assign_spline_range(const CoefStorage& src, int first, int count)
  {
    for (int i = 0; i < grid_.x.num + 3; ++i)
      assign_spline_range_plane(src, first, count, i);
  }

  /// The x-plane @p i share of assign_spline_range: the unit MultiBspline's
  /// team-split copy hands out, so distinct planes may be copied at once.
  void assign_spline_range_plane(const CoefStorage& src, int first, int count, int i)
  {
    assert(count <= num_splines_);
    assert(first + count <= src.num_splines());
    for (int j = 0; j < grid_.y.num + 3; ++j)
      for (int k = 0; k < grid_.z.num + 3; ++k) {
        const T* s = src.row(i, j, k) + first;
        T* d = row(i, j, k);
        for (int n = 0; n < count; ++n)
          d[n] = s[n];
      }
  }

private:
  Grid3D<T> grid_;
  int num_splines_ = 0;
  std::size_t n_pad_ = 0;
  std::size_t zs_ = 0, ys_ = 0, xs_ = 0;
  TableBlock data_;
};

/// The tables one engine reads: one for BsplineAoS/BsplineSoA, the tiles in
/// order for MultiBspline.
template <typename T>
using CoefTables = std::vector<std::shared_ptr<const CoefStorage<T>>>;

/// Fill @p parts — consecutive spline ranges of one logical table on one
/// grid, in order (the tiles of an AoSoA split) — with exactly what
/// CoefStorage::fill_random(seed) writes into that untiled table: per storage
/// row, one draw per padded lane of each part in turn, 0 stored in padding
/// lanes.  Every part but the last must be padding-free, so the parts' lanes
/// line up with the untiled table's; throws std::invalid_argument otherwise.
/// Runs on the machine's team (Xoshiro256::advance gives each member its
/// slab's draws); the bytes do not depend on the team size.
template <typename T>
void fill_random_split(std::span<CoefStorage<T>* const> parts, std::uint64_t seed)
{
  if (parts.empty())
    return;
  const Grid3D<T>& g = parts.front()->grid();
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const Grid3D<T>& gp = parts[p]->grid();
    if (gp.x.num != g.x.num || gp.y.num != g.y.num || gp.z.num != g.z.num ||
        (p + 1 < parts.size() &&
         parts[p]->padded_splines() != static_cast<std::size_t>(parts[p]->num_splines())))
      throw std::invalid_argument("fill_random_split: parts are not one table's split");
  }
  // Each member of the machine's team fills a contiguous slab of x-planes
  // from the one stream advanced to the slab's first draw, so every team
  // size writes the single-stream bytes, and the filling threads are the
  // first to touch their slabs' pages.
  std::uint64_t row_draws = 0;
  for (const CoefStorage<T>* part : parts)
    row_draws += part->padded_splines();
  const std::uint64_t plane_draws =
      row_draws * static_cast<std::uint64_t>(g.y.num + 3) * static_cast<std::uint64_t>(g.z.num + 3);
  const int members = TeamHandle::whole_machine().resolve();
  team_for(TeamHandle::whole_machine(), members, [&](int m) {
    const Range slab = block_range(static_cast<std::size_t>(g.x.num + 3),
                                   static_cast<std::size_t>(members), static_cast<std::size_t>(m));
    if (slab.empty())
      return;
    Xoshiro256 rng(seed);
    rng.advance(slab.first * plane_draws);
    for (int i = static_cast<int>(slab.first); i < static_cast<int>(slab.last); ++i)
      for (int j = 0; j < g.y.num + 3; ++j)
        for (int k = 0; k < g.z.num + 3; ++k)
          for (CoefStorage<T>* part : parts) {
            T* r = part->row(i, j, k);
            const std::size_t count = static_cast<std::size_t>(part->num_splines());
            for (std::size_t n = 0; n < part->padded_splines(); ++n) {
              const T v = static_cast<T>(rng.uniform(-0.5, 0.5));
              r[n] = n < count ? v : T(0);
            }
          }
  });
}

/// Convert a grid between element types, recomputing delta/delta_inv in the
/// destination precision (never round-tripping the derived members through
/// the source type).
template <typename TDst, typename TSrc>
[[nodiscard]] inline Grid3D<TDst> convert_grid(const Grid3D<TSrc>& g)
{
  return Grid3D<TDst>(Grid1D<TDst>(static_cast<TDst>(g.x.start), static_cast<TDst>(g.x.end), g.x.num),
                      Grid1D<TDst>(static_cast<TDst>(g.y.start), static_cast<TDst>(g.y.end), g.y.num),
                      Grid1D<TDst>(static_cast<TDst>(g.z.start), static_cast<TDst>(g.z.end), g.z.num));
}

/// THE precision-conversion seam (lint rule `precision-cast`): materialize an
/// element-wise converted copy of @p src in the calling thread (the
/// first-touch point — under Linux's default policy the copy's pages land on
/// the caller's socket).  Narrowing a DP build to SP here is the mixed-
/// precision path's table construction; because the synthetic builders fill
/// coefficients from double-valued sources, `convert_storage<float>(dp_build)`
/// is bit-identical to building the float table directly.  Code anywhere
/// else must not narrow coefficient data — route it through this function so
/// the accuracy decision has one audited owner.
template <typename TDst, typename TSrc>
[[nodiscard]] std::shared_ptr<CoefStorage<TDst>> convert_storage(const CoefStorage<TSrc>& src)
{
  auto dst = std::make_shared<CoefStorage<TDst>>(convert_grid<TDst>(src.grid()),
                                                 src.num_splines());
  // Only the logical splines are converted; the per-type padding tail (the
  // lane counts of TSrc and TDst differ) stays at the constructor's zeros.
  const int nx = src.grid().x.num + 3, ny = src.grid().y.num + 3, nz = src.grid().z.num + 3;
  const int count = src.num_splines();
  for (int i = 0; i < nx; ++i)
    for (int j = 0; j < ny; ++j)
      for (int k = 0; k < nz; ++k) {
        const TSrc* s = src.row(i, j, k);
        TDst* d = dst->row(i, j, k);
        for (int n = 0; n < count; ++n)
          d[n] = static_cast<TDst>(s[n]);
      }
  return dst;
}

/// Per-socket replicas of the read-only coefficient tables one engine reads
/// (CoefTables: the single table of a SoA/AoS engine, or every tile of an
/// AoSoA engine — never an untiled table the engine does not read), shared
/// by the shards on each socket.
///
/// On a NUMA host the table is the bandwidth wall (paper §IV; Luo et al.,
/// arXiv:1805.07406): a single allocation lands on one socket and every
/// other socket's crowds pull all spline traffic across the
/// interconnect.  A WalkerPopulation therefore gives each socket it runs on
/// one copy of the set, materialized by `replicate(s)` ON a thread of the
/// socket's first shard — under Linux's default first-touch policy the
/// copy's pages land on the socket of the thread that writes them.  Shards
/// on one socket read one set: a second copy there would buy no locality,
/// only memory and a larger cache working set.  Socket 0 always resolves to
/// the master set itself (no copy; it was first-touched by the threads that
/// built it, the machine's team for the random fill and the copy split),
/// and each socket's engines/OrbitalSet facade are then constructed over
/// its set, so every facade evaluation reads socket-local memory.
///
/// Replicas are exact byte copies, so which replica serves a walker is
/// trajectory-neutral: bit-for-bit identical results for any shard count
/// and placement.
template <typename T>
class CoefReplicaSet
{
public:
  CoefReplicaSet() = default;

  /// @p master (one engine's tables) becomes socket 0's set (no copy).
  /// @p shard_socket maps shard s to its socket: it starts at 0 and never
  /// skips a socket (qmc/crowd_sweep.h shard_sockets).  Every further
  /// socket's set starts empty until its first shard calls replicate().
  CoefReplicaSet(CoefTables<T> master, std::vector<int> shard_socket)
      : shard_socket_(std::move(shard_socket)),
        sets_(shard_socket_.empty() ? 1 : static_cast<std::size_t>(shard_socket_.back()) + 1)
  {
    assert(!master.empty() && !shard_socket_.empty() && shard_socket_.front() == 0);
    sets_[0] = std::move(master);
  }

  [[nodiscard]] int num_shards() const noexcept { return static_cast<int>(shard_socket_.size()); }
  /// Sockets in use: one set each.
  [[nodiscard]] int num_sockets() const noexcept { return static_cast<int>(sets_.size()); }
  [[nodiscard]] int socket_of(int s) const noexcept
  {
    return shard_socket_[static_cast<std::size_t>(s)];
  }
  /// True for the shard whose thread copies its socket's set: the first
  /// shard of every socket but socket 0.
  [[nodiscard]] bool copies(int s) const noexcept
  {
    return s > 0 && socket_of(s) != socket_of(s - 1);
  }

  /// The set shard @p s reads: its socket's.  Materialized on first call,
  /// allocated and written by the CALLING thread (the first-touch point —
  /// call it from the shard that copies(), on its own team member) as a copy
  /// of every master table.  Idempotent: an existing set is returned as-is.
  /// Distinct sockets may replicate concurrently (each writes only its own
  /// pre-sized slot); two shards of one socket must not.
  const CoefTables<T>& replicate(int s)
  {
    auto& slot = sets_[static_cast<std::size_t>(socket_of(s))];
    if (slot.empty())
      for (const auto& table : sets_[0])
        slot.push_back(std::make_shared<CoefStorage<T>>(*table));
    return slot;
  }

  /// Bytes held by socket @p k's set (0 until replicated; socket 0 reports
  /// the master it adopted).
  [[nodiscard]] std::size_t replica_bytes(int k) const noexcept
  {
    std::size_t total = 0;
    for (const auto& table : sets_[static_cast<std::size_t>(k)])
      total += table->size_bytes();
    return total;
  }

  /// Total bytes across the materialized sets, each set once — what the
  /// population actually pinned for these tables.
  [[nodiscard]] std::size_t total_replica_bytes() const noexcept
  {
    std::size_t total = 0;
    for (int k = 0; k < num_sockets(); ++k)
      total += replica_bytes(k);
    return total;
  }

private:
  std::vector<int> shard_socket_;    ///< [num_shards]
  std::vector<CoefTables<T>> sets_;  ///< [num_sockets]
};

} // namespace mqc

#endif // MQC_CORE_COEF_STORAGE_H
