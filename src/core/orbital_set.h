// OrbitalSet — the single batched-first evaluation API over all spline
// engines (the QMCPACK lesson institutionalized as the batched SPOSet API,
// cf. Mathuriya et al., IPDPS 2017; Luo et al., arXiv:1805.07406).
//
// Every consumer of orbital evaluations — the per-walker driver, the crowd
// driver, the population-wide batched layer, the wave function — talks to
// one facade instead of picking among the engines' ~10 raw entry points
// (`evaluate_{v,vgl,vgh}`, `_w`, `_multi`, `_tile_multi`; those remain
// public for kernel benches and ablations but are internal API).  The facade
// is type-erased without virtual dispatch: a std::variant over non-owning
// engine pointers, so an OrbitalSet is two words, trivially copyable, and
// every call inlines into the selected engine's kernels.
//
// The API is batched-first: `evaluate(Request, Resource)` takes 1..P
// positions, a derivative level (V / VGL / VGH) and per-position output
// slots; a single-position call is the P = 1 case of the same sweep
// (`evaluate_one` runs it over one stack weight set, allocation-free).
// `capabilities()` reports what the wrapped engine can do — native
// multi-position sweeps? how many tiles? which preferred position block? —
// so drivers make their single-vs-multi scheduling decision explicitly
// instead of silently falling back.  Scratch (the batch's weight sets,
// consumers' pointer tables) lives in an OrbitalResource owned by the
// caller — one per thread or per crowd — so the hot loop allocates nothing
// and no scratch hides in scattered function-local thread_locals.
//
// Dispatch is tuner-aware: set_pos_block() attaches the Wisdom-tuned
// position block P (core/tuner.h) and every multi-position request on a
// tiled engine is blocked accordingly; blocking only reorders independent
// per-(tile, position) kernel calls, so results are bit-for-bit identical
// for every P.
#ifndef MQC_CORE_ORBITAL_SET_H
#define MQC_CORE_ORBITAL_SET_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/config.h"
#include "common/contracts.h"
#include "common/threading.h"
#include "common/vec3.h"
#include "core/bspline_aos.h"
#include "core/bspline_soa.h"
#include "core/coef_storage.h"
#include "core/multi_bspline.h"
#include "core/weights.h"

namespace mqc {

/// Which mixed-precision engine pairing exists for an interface type T.
/// Mixed means: TStore = T coefficient tables, compute_type accumulation
/// (core/bspline_soa.h).  Only float has a wider compute partner today;
/// double-interface sets have no mixed variant (their native path IS the
/// full-precision reference).
template <typename T>
struct MixedPrecisionFor
{
  static constexpr bool available = false;
  using compute_type = T;
};

template <>
struct MixedPrecisionFor<float>
{
  static constexpr bool available = true;
  using compute_type = double;
};

/// Derivative level of an evaluation request.
enum class DerivLevel
{
  V,   ///< values only
  VGL, ///< values + gradients + Laplacians
  VGH  ///< values + gradients + symmetric Hessians
};

/// Weight sets of @p count positions on @p grid for level @p deriv (value
/// weights for V, full derivative weights for VGL and VGH).
template <typename WT, typename T>
void compute_weights_batch(DerivLevel deriv, const Grid3D<WT>& grid, const Vec3<T>* pos, int count,
                           BsplineWeights3D<WT>* w) noexcept
{
  if (deriv == DerivLevel::V)
    compute_weights_v_batch(grid, pos, count, w);
  else
    compute_weights_vgh_batch(grid, pos, count, w);
}

/// Which evaluation schedule a driver actually ran — the explicit,
/// capabilities-derived decision surfaced in results (no silent fallback).
enum class EvalPath
{
  SinglePosition, ///< one engine call per position
  MultiPosition   ///< multi-position sweeps (one coefficient pass per batch)
};

/// Memory layout family of the wrapped engine.
enum class OrbitalLayout
{
  AoS,   ///< baseline: AoS gradients/Hessians, no multi-position path
  SoA,   ///< SoA component streams
  AoSoA  ///< tiled SoA (MultiBspline)
};

namespace detail {

/// The layout family of an engine type.
template <typename Engine>
inline constexpr OrbitalLayout engine_layout = OrbitalLayout::AoS;
template <typename TStore, typename TCompute>
inline constexpr OrbitalLayout engine_layout<BsplineSoA<TStore, TCompute>> = OrbitalLayout::SoA;
template <typename TStore, typename TCompute>
inline constexpr OrbitalLayout engine_layout<MultiBspline<TStore, TCompute>> =
    OrbitalLayout::AoSoA;

} // namespace detail

/// What the wrapped engine can do, queried once by a driver to pick its
/// schedule (and by tests to assert the decision).
struct OrbitalCapabilities
{
  OrbitalLayout layout = OrbitalLayout::AoS;
  bool native_multi_eval = false; ///< has weight-precomputed multi-position sweeps
  int num_tiles = 1;              ///< coefficient tiles (1 for untiled engines)
  int preferred_pos_block = 0;    ///< tuned P for multi requests (0 = whole batch)
  int num_splines = 0;
  std::size_t padded_splines = 0;
  std::size_t out_stride = 0;     ///< natural component stride of the outputs
  /// Precision family of the wrapped engine (core/coef_storage.h): Native =
  /// storage and compute share the interface type; Mixed = narrow tables,
  /// wide accumulation.
  PrecisionPath precision = PrecisionPath::Native;
  /// Total coefficient-table bytes this engine streams per full-set sweep —
  /// the per-replica memory footprint a shard pins on its socket.
  std::size_t coef_table_bytes = 0;
};

/// Caller-owned scratch for batched evaluation: the batch's weight sets plus
/// pointer-table storage for consumers that gather per-position output slots
/// from walker buffers.  Keep one per thread (or per crowd) and reuse it —
/// capacity is sticky, so steady-state driver iterations allocate nothing.
template <typename T>
struct OrbitalResource
{
  std::vector<BsplineWeights3D<T>> weights;
  /// Wide weight sets for the mixed path (TCompute = double batches); kept
  /// separate so native and mixed engines sharing one resource never
  /// reinterpret each other's scratch.  Empty unless a mixed engine is used.
  std::vector<BsplineWeights3D<double>> weights_wide;
  std::vector<T*> v, g, lh; ///< consumer pointer tables (evaluate_batched fills them)
#ifdef MQC_CONTRACTS
  /// Contract state: true while an OrbitalSet::evaluate call owns this
  /// resource.  A second evaluation entering with the flag still set means
  /// two calls share one scratch object — the weight batch of the live call
  /// would be clobbered mid-evaluation (the aliasing the per-(thread, level)
  /// thread_instance() stack exists to prevent).
  bool contract_live = false;
#endif

  /// Ensure weight capacity for a batch of @p count positions.
  BsplineWeights3D<T>* weights_for(int count)
  {
    if (weights.size() < static_cast<std::size_t>(count))
      weights.resize(static_cast<std::size_t>(count));
    return weights.data();
  }

  /// Weight-type-generic variant: the engine's compute type selects the
  /// native batch or the wide (mixed-path) batch.
  template <typename WT>
  BsplineWeights3D<WT>* weights_buffer(int count)
  {
    if constexpr (std::is_same_v<WT, T>) {
      return weights_for(count);
    } else {
      if (weights_wide.size() < static_cast<std::size_t>(count))
        weights_wide.resize(static_cast<std::size_t>(count));
      return weights_wide.data();
    }
  }

  void resize_tables(int count)
  {
    const auto n = static_cast<std::size_t>(count);
    v.resize(n);
    g.resize(n);
    lh.resize(n);
  }

  /// Shared per-thread instance for call sites without a natural owner
  /// (the population-wide evaluate_batched in core/batched.h).  Drivers with
  /// per-crowd or per-walker state should own their resource instead.
  ///
  /// Instances are keyed by the OpenMP nesting level, not one per thread:
  /// under nested parallelism the master of an inner team IS the outer
  /// thread, so a single thread_local would hand a nested facade call the
  /// same object an enclosing call is still using (its weight batch would be
  /// clobbered mid-evaluation).  One instance per (thread, nesting level)
  /// makes the outer and nested calls disjoint; the stack is small (nesting
  /// depth, in practice <= 2) and sticky like the resources themselves.
  static OrbitalResource& thread_instance()
  {
    static thread_local std::vector<std::unique_ptr<OrbitalResource>> per_level;
    const auto level = static_cast<std::size_t>(nest_level());
    if (per_level.size() <= level)
      per_level.resize(level + 1);
    auto& slot = per_level[level];
    if (!slot)
      slot = std::make_unique<OrbitalResource>();
    return *slot;
  }
};

/// One batched evaluation: @p count positions, one derivative level, one
/// output slot per position.  `g`/`lh` may be null for DerivLevel::V; `lh`
/// holds Laplacian slots for VGL and Hessian slots for VGH.  Component
/// layout inside a slot is the engine's native one (SoA streams with
/// `stride` for SoA/AoSoA engines; packed AoS groups for the AoS baseline,
/// which ignores `stride`).
template <typename T>
struct OrbitalEvalRequest
{
  DerivLevel deriv = DerivLevel::V;
  const Vec3<T>* positions = nullptr;
  int count = 0;
  T* const* v = nullptr;
  T* const* g = nullptr;
  T* const* lh = nullptr;
  std::size_t stride = 0;
  /// Position block for tiled engines: how many positions share one pass
  /// over a tile's coefficient slice.  0 = facade default (the tuned block
  /// if one was attached, else the whole batch).  Any value gives
  /// bit-identical results; it only changes the sweep order.
  int pos_block = 0;
  /// Parallelize the sweep over (tile, position-block) work items with
  /// OpenMP.  Whether that means a fresh machine-wide region or a nested
  /// inner team is the caller's decision, carried by `team` below.
  bool parallel = false;
  /// The caller's thread team for a parallel sweep (common/threading.h):
  /// how many threads this request may occupy.  Defaults to
  /// whole_machine() — the right size for ownerless top-level call sites
  /// (core/batched.h) — while drivers that hold a ThreadPartition pass
  /// their inner team, so a crowd's facade calls fork exactly the threads
  /// the partition assigned to that crowd and never re-derive the machine
  /// size mid-region.  A team of 1 runs the serial sweep (no region is
  /// opened at all).  Ignored when `parallel` is false.  Any team size
  /// gives bit-identical results: teams only distribute independent
  /// per-(tile, position) work items.
  TeamHandle team = TeamHandle::whole_machine();
};

/// Resolve a position-block request against the batch size: pb <= 0 means
/// "one block spanning the whole batch" (maximum input reuse), anything
/// else is clamped to [1, count].
inline int resolve_pos_block(int pos_block, int count)
{
  if (pos_block <= 0)
    return count;
  return std::min(pos_block, count);
}

template <typename T>
class OrbitalSet
{
public:
  OrbitalSet() = default;
  OrbitalSet(const BsplineAoS<T>& engine) : engine_(&engine) {}
  OrbitalSet(const BsplineSoA<T>& engine) : engine_(&engine) {}
  OrbitalSet(const MultiBspline<T>& engine) : engine_(&engine) {}

  /// Mixed-precision engines (narrow tables, wide accumulation) — only
  /// where a wider compute partner exists for T (MixedPrecisionFor).
  template <typename U = T>
    requires MixedPrecisionFor<U>::available
  OrbitalSet(const BsplineSoA<U, typename MixedPrecisionFor<U>::compute_type>& engine)
      : engine_(&engine)
  {
  }
  template <typename U = T>
    requires MixedPrecisionFor<U>::available
  OrbitalSet(const MultiBspline<U, typename MixedPrecisionFor<U>::compute_type>& engine)
      : engine_(&engine)
  {
  }

  [[nodiscard]] bool valid() const noexcept
  {
    return !std::holds_alternative<std::monostate>(engine_);
  }

  /// Attach the tuned position block (Wisdom entry, core/tuner.h); consulted
  /// whenever a multi-position request leaves pos_block at 0.
  void set_pos_block(int pb) noexcept { pos_block_ = pb; }
  [[nodiscard]] int pos_block() const noexcept { return pos_block_; }

  [[nodiscard]] OrbitalCapabilities capabilities() const
  {
    OrbitalCapabilities caps;
    caps.preferred_pos_block = pos_block_;
    std::visit(
        [&]<typename P>(P e) {
          if constexpr (!std::is_same_v<P, std::monostate>) {
            using Engine = std::remove_cvref_t<decltype(*e)>;
            constexpr OrbitalLayout layout = detail::engine_layout<Engine>;
            caps.layout = layout;
            caps.native_multi_eval = layout != OrbitalLayout::AoS;
            caps.num_splines = e->num_splines();
            caps.padded_splines = e->padded_splines();
            if constexpr (layout == OrbitalLayout::AoS) {
              caps.out_stride = e->padded_splines();
              caps.coef_table_bytes = e->coefs().size_bytes();
            } else {
              caps.out_stride = e->out_stride();
              caps.coef_table_bytes = e->coef_bytes();
              if constexpr (!std::is_same_v<typename Engine::compute_type, T>)
                caps.precision = PrecisionPath::Mixed;
            }
            if constexpr (layout == OrbitalLayout::AoSoA)
              caps.num_tiles = e->num_tiles();
          }
        },
        engine_);
    return caps;
  }

  /// The storage grid of the wrapped engine.  Throws std::logic_error on an
  /// empty (default-constructed) set.
  [[nodiscard]] const Grid3D<T>& grid() const
  {
    return std::visit(
        [&]<typename P>(P e) -> const Grid3D<T>& {
          if constexpr (std::is_same_v<P, std::monostate>)
            throw std::logic_error("OrbitalSet::grid: no engine is wrapped");
          else if constexpr (detail::engine_layout<std::remove_cvref_t<decltype(*e)>> ==
                             OrbitalLayout::AoSoA)
            return e->grid();
          else
            return e->coefs().grid();
        },
        engine_);
  }

  /// The batched entry point: evaluate all positions of @p rq at the
  /// requested derivative level.  One weight set per position is computed
  /// into @p res, then the engine's best sweep runs — per-position kernels
  /// on the AoS baseline, multi-position block sweeps (pos_block positions
  /// per coefficient pass) on the SoA/AoSoA engines.  Results are
  /// bit-for-bit identical to the corresponding single-position calls.
  void evaluate(const OrbitalEvalRequest<T>& rq, OrbitalResource<T>& res) const
  {
    assert(valid());
    if (rq.count <= 0)
      return;
    assert(rq.positions != nullptr && rq.v != nullptr);
    assert((rq.deriv == DerivLevel::V) || (rq.g != nullptr && rq.lh != nullptr));
#ifdef MQC_CONTRACTS
    mqc_contract(!res.contract_live,
                 "OrbitalResource re-entered: a live evaluation on nesting level %d still owns "
                 "this resource; nested or concurrent facade calls must each own their own "
                 "resource (thread_instance() hands out one per (thread, level))",
                 nest_level());
    res.contract_live = true;
    struct LiveGuard
    {
      bool* live;
      ~LiveGuard() { *live = false; }
    } contract_guard{&res.contract_live};
    contract_check_request(rq);
#endif
    std::visit(
        [&]<typename P>(P e) {
          if constexpr (!std::is_same_v<P, std::monostate>) {
            using Engine = std::remove_cvref_t<decltype(*e)>;
            if constexpr (detail::engine_layout<Engine> == OrbitalLayout::AoS)
              sweep(*e, rq);
            else
              sweep(*e, rq,
                    res.template weights_buffer<typename Engine::compute_type>(rq.count));
          }
        },
        engine_);
  }

  /// Single-position sugar: evaluate()'s per-engine sweep at count 1, over
  /// one stack weight set — no resource needed, nothing allocated.  @p g /
  /// @p lh may be null for DerivLevel::V.
  void evaluate_one(DerivLevel deriv, const Vec3<T>& r, T* v, T* g, T* lh,
                    std::size_t stride) const
  {
    assert(valid());
    OrbitalEvalRequest<T> rq;
    rq.deriv = deriv;
    rq.positions = &r;
    rq.count = 1;
    rq.v = &v;
    rq.g = &g;
    rq.lh = &lh;
    rq.stride = stride;
    std::visit(
        [&]<typename P>(P e) {
          if constexpr (!std::is_same_v<P, std::monostate>) {
            using Engine = std::remove_cvref_t<decltype(*e)>;
            if constexpr (detail::engine_layout<Engine> == OrbitalLayout::AoS) {
              sweep(*e, rq);
            } else {
              typename Engine::weights_type w;
              sweep(*e, rq, &w);
            }
          }
        },
        engine_);
  }

private:
  using MixedCompute = typename MixedPrecisionFor<T>::compute_type;
  /// The mixed alternatives exist only where T has a wider compute partner
  /// (for T = double they would repeat the native engine types).
  using EngineRef = std::conditional_t<
      MixedPrecisionFor<T>::available,
      std::variant<std::monostate, const BsplineAoS<T>*, const BsplineSoA<T>*,
                   const MultiBspline<T>*, const BsplineSoA<T, MixedCompute>*,
                   const MultiBspline<T, MixedCompute>*>,
      std::variant<std::monostate, const BsplineAoS<T>*, const BsplineSoA<T>*,
                   const MultiBspline<T>*>>;

#ifdef MQC_CONTRACTS
  /// Seam validation of a batched request (contracts builds only): every
  /// position owns a non-null output slot, the component stride honours the
  /// engine contract, and no two positions' value slots alias.  Runs before
  /// any kernel touches memory, so a malformed request aborts with the
  /// request-level diagnostic instead of corrupting a neighbour's outputs.
  void contract_check_request(const OrbitalEvalRequest<T>& rq) const
  {
    const OrbitalCapabilities caps = capabilities();
    const bool has_derivs = rq.deriv != DerivLevel::V;
    for (int p = 0; p < rq.count; ++p) {
      mqc_contract(rq.v[p] != nullptr, "OrbitalEvalRequest value slot v[%d] is null", p);
      if (has_derivs) {
        mqc_contract(rq.g[p] != nullptr, "OrbitalEvalRequest gradient slot g[%d] is null", p);
        mqc_contract(rq.lh[p] != nullptr,
                     "OrbitalEvalRequest Laplacian/Hessian slot lh[%d] is null", p);
      }
    }
    // Component stride: the SoA/AoSoA kernels sweep padded_splines() entries
    // per component and promise `omp simd aligned` on every stream, so the
    // documented engine contract is stride >= padded and lane-aligned (the
    // AoS baseline packs its own groups and ignores stride).
    if (caps.layout != OrbitalLayout::AoS && has_derivs)
      mqc_contract(rq.stride >= caps.padded_splines && rq.stride % simd_lanes<T> == 0,
                   "OrbitalEvalRequest stride %zu violates the engine contract "
                   "(>= padded_splines %zu and a multiple of %zu lanes)",
                   rq.stride, caps.padded_splines, simd_lanes<T>);
    // Value-slot overlap: each position writes padded_splines() values (the
    // SIMD sweeps store full padded rows; the AoS baseline num_splines —
    // use the engine's write extent), so distinct positions need disjoint
    // extents.  Sorting makes the check O(P log P); P is a position block.
    const std::size_t extent = caps.layout == OrbitalLayout::AoS
                                   ? static_cast<std::size_t>(caps.num_splines)
                                   : caps.padded_splines;
    std::vector<std::pair<const T*, int>> slots;
    slots.reserve(static_cast<std::size_t>(rq.count));
    for (int p = 0; p < rq.count; ++p)
      slots.emplace_back(rq.v[p], p);
    std::sort(slots.begin(), slots.end());
    for (std::size_t i = 1; i < slots.size(); ++i) {
      const auto gap = static_cast<std::size_t>(slots[i].first - slots[i - 1].first);
      mqc_contract(gap >= extent,
                   "OrbitalEvalRequest value slots of positions %d and %d overlap "
                   "(%zu elements apart, write extent %zu): every position in a batch "
                   "needs its own output slot",
                   slots[i - 1].second, slots[i].second, gap, extent);
    }
  }
#endif

  /// AoS baseline: no multi-position path — one single-position kernel call
  /// per position (the decision capabilities() exposes as
  /// native_multi_eval == false).  `stride` is ignored: outputs use the
  /// engine's packed AoS component groups.
  void sweep(const BsplineAoS<T>& e, const OrbitalEvalRequest<T>& rq) const
  {
    auto body = [&](int p) {
      const Vec3<T>& r = rq.positions[p];
      switch (rq.deriv) {
      case DerivLevel::V:
        e.evaluate_v(r.x, r.y, r.z, rq.v[p]);
        break;
      case DerivLevel::VGL:
        e.evaluate_vgl(r.x, r.y, r.z, rq.v[p], rq.g[p], rq.lh[p]);
        break;
      case DerivLevel::VGH:
        e.evaluate_vgh(r.x, r.y, r.z, rq.v[p], rq.g[p], rq.lh[p]);
        break;
      }
    };
    const int nth = rq.parallel ? rq.team.resolve() : 1;
    if (nth > 1) {
#pragma omp parallel for schedule(static) num_threads(nth)
      for (int p = 0; p < rq.count; ++p)
        body(p);
    } else {
      for (int p = 0; p < rq.count; ++p)
        body(p);
    }
  }

  /// Untiled SoA engine: weights into @p w, then one block sweep over the
  /// table (serial) or one position per work item (`parallel`).
  template <typename TC>
  void sweep(const BsplineSoA<T, TC>& e, const OrbitalEvalRequest<T>& rq,
             BsplineWeights3D<TC>* w) const
  {
    compute_weights_batch(rq.deriv, e.eval_grid(), rq.positions, rq.count, w);
    const int nth = rq.parallel ? rq.team.resolve() : 1;
    if (nth <= 1) {
      switch (rq.deriv) {
      case DerivLevel::V:
        e.evaluate_v_multi(w, rq.count, rq.v);
        break;
      case DerivLevel::VGL:
        e.evaluate_vgl_multi(w, rq.count, rq.v, rq.g, rq.lh, rq.stride);
        break;
      case DerivLevel::VGH:
        e.evaluate_vgh_multi(w, rq.count, rq.v, rq.g, rq.lh, rq.stride);
        break;
      }
      return;
    }
#pragma omp parallel for schedule(static) num_threads(nth)
    for (int p = 0; p < rq.count; ++p) {
      switch (rq.deriv) {
      case DerivLevel::V:
        e.evaluate_v_w(w[p], rq.v[p]);
        break;
      case DerivLevel::VGL:
        e.evaluate_vgl_w(w[p], rq.v[p], rq.g[p], rq.lh[p], rq.stride);
        break;
      case DerivLevel::VGH:
        e.evaluate_vgh_w(w[p], rq.v[p], rq.g[p], rq.lh[p], rq.stride);
        break;
      }
    }
  }

  /// Tiled engine: weights once per position (into @p w), then tile-outer /
  /// position-block-inner sweeps — each tile's 4*Ng*Nb-byte coefficient
  /// slice is streamed from memory once per block of P positions and reused
  /// from cache (the core of the paper's AoSoA analysis, extended across
  /// positions).  `parallel` distributes (tile, block) work items.
  template <typename TC>
  void sweep(const MultiBspline<T, TC>& e, const OrbitalEvalRequest<T>& rq,
             BsplineWeights3D<TC>* w) const
  {
    compute_weights_batch(rq.deriv, e.eval_grid(), rq.positions, rq.count, w);
    const int pb = resolve_pos_block(rq.pos_block != 0 ? rq.pos_block : pos_block_, rq.count);
    const int nblocks = (rq.count + pb - 1) / pb;
    const int nt = e.num_tiles();
    auto body = [&](int t, int b) {
      const int first = b * pb;
      const int count = std::min(pb, rq.count - first);
      switch (rq.deriv) {
      case DerivLevel::V:
        e.evaluate_v_tile_multi(t, w + first, count, rq.v + first);
        break;
      case DerivLevel::VGL:
        e.evaluate_vgl_tile_multi(t, w + first, count, rq.v + first, rq.g + first, rq.lh + first,
                                  rq.stride);
        break;
      case DerivLevel::VGH:
        e.evaluate_vgh_tile_multi(t, w + first, count, rq.v + first, rq.g + first, rq.lh + first,
                                  rq.stride);
        break;
      }
    };
    const int nth = rq.parallel ? rq.team.resolve() : 1;
    if (nth > 1) {
#pragma omp parallel for collapse(2) schedule(static) num_threads(nth)
      for (int t = 0; t < nt; ++t)
        for (int b = 0; b < nblocks; ++b)
          body(t, b);
    } else {
      for (int t = 0; t < nt; ++t)
        for (int b = 0; b < nblocks; ++b)
          body(t, b);
    }
  }

  EngineRef engine_;
  int pos_block_ = 0;
};

} // namespace mqc

#endif // MQC_CORE_ORBITAL_SET_H
