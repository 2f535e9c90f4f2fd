// Optimized engine with SoA output layout (paper Fig. 4(b), Opt A).
//
// Differences from the AoS baseline, exactly the paper's §V-A list:
//   * each output component is its own unit-stride, 64-byte-aligned stream:
//     v | gx gy gz | hxx hxy hxz hyy hyz hzz — 10 streams instead of 13
//     AoS components (the symmetric Hessian is stored once),
//   * the z loop is unrolled into fused partial sums, so the innermost loop
//     reads four coefficient streams and performs pure FMA accumulation,
//   * no temporaries are allocated per call,
//   * the first (i,j) weight iteration *stores* (`=`) into the output streams
//     and only the remaining 15 accumulate (`+=`), so there is no separate
//     zero-fill pass over the outputs (one fewer full write sweep per call).
//
// Output layout: component q of a family lives at base + q*stride where
// stride is the caller's component stride (>= padded_splines(), multiple of
// the SIMD lane count).  This lets one engine serve both a standalone SoA
// walker buffer and a tile slice of an AoSoA walker buffer.
//
// Two entry-point families:
//   * evaluate_v/vgl/vgh(x, y, z, ...) — single position, weights computed
//     internally;
//   * evaluate_v/vgl/vgh_w(weights, ...) and the *_multi block variants —
//     the multi-position evaluation layer: the caller precomputes a block of
//     weight sets (core/weights.h batch helpers) and the engine sweeps its
//     coefficient table once per block, amortizing the table traffic over
//     all P positions (the cache-residency extension of the paper's AoSoA
//     analysis; see core/batched.h).
//
// Precision split (PrecisionPath, ROADMAP item 3): the element type is two
// parameters, `BsplineSoA<TStore, TCompute>`.  TStore is the interface type
// — coefficient storage, positions in, output streams out; TCompute is the
// internal type for weights, prefactors and accumulation.  The historical
// single-parameter form `BsplineSoA<T>` is the TCompute = TStore default and
// compiles (and computes) bit-for-bit unchanged.  `BsplineSoA<float, double>`
// is the mixed path: float tables (half a DP table's streamed bytes), every
// weight product and partial sum carried in double inside a cache-resident
// accumulation tile, one narrowing store per output element at the end.
// Weights are always computed on a TCompute copy of the grid (exact: grid
// bounds are converted, derived members recomputed in TCompute).
#ifndef MQC_CORE_BSPLINE_SOA_H
#define MQC_CORE_BSPLINE_SOA_H

#include <algorithm>
#include <cassert>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/config.h"
#include "common/simd.h"
#include "common/vec3.h"
#include "core/coef_storage.h"
#include "core/weights.h"

namespace mqc {

template <typename TStore, typename TCompute = TStore>
class BsplineSoA
{
public:
  using store_type = TStore;
  using compute_type = TCompute;
  using weights_type = BsplineWeights3D<TCompute>;

  static constexpr bool is_mixed = !std::is_same_v<TStore, TCompute>;

  explicit BsplineSoA(std::shared_ptr<const CoefStorage<TStore>> coefs)
      : coefs_(std::move(coefs)), cgrid_(convert_grid<TCompute>(coefs_->grid()))
  {
  }

  [[nodiscard]] int num_splines() const noexcept { return coefs_->num_splines(); }
  [[nodiscard]] std::size_t padded_splines() const noexcept { return coefs_->padded_splines(); }
  [[nodiscard]] const CoefStorage<TStore>& coefs() const noexcept { return *coefs_; }
  /// Bytes of coefficient table this engine streams per full sweep.
  [[nodiscard]] std::size_t coef_bytes() const noexcept { return coefs_->size_bytes(); }
  /// The grid weights must be computed on: a TCompute copy of the table's
  /// grid (identical to coefs().grid() when TCompute == TStore).
  [[nodiscard]] const Grid3D<TCompute>& eval_grid() const noexcept { return cgrid_; }
  /// Natural component stride when this engine owns the whole orbital set.
  [[nodiscard]] std::size_t out_stride() const noexcept { return coefs_->padded_splines(); }

  // -- single-position kernels (weights computed internally) ---------------

  /// Values only (z-unrolled; layout is already unit-stride for V).
  void evaluate_v(TStore x, TStore y, TStore z, TStore* MQC_RESTRICT v) const
  {
    weights_type w;
    compute_weights_v(cgrid_, static_cast<TCompute>(x), static_cast<TCompute>(y),
                      static_cast<TCompute>(z), w);
    evaluate_v_w(w, v);
  }

  /// Value + gradient + Laplacian; 5 SoA streams (v | gx gy gz via g,stride | l).
  void evaluate_vgl(TStore x, TStore y, TStore z, TStore* MQC_RESTRICT v, TStore* MQC_RESTRICT g,
                    TStore* MQC_RESTRICT l, std::size_t stride) const
  {
    weights_type w;
    compute_weights_vgh(cgrid_, static_cast<TCompute>(x), static_cast<TCompute>(y),
                        static_cast<TCompute>(z), w);
    evaluate_vgl_w(w, v, g, l, stride);
  }

  /// Value + gradient + symmetric Hessian; 10 SoA streams
  /// (v | gx gy gz via g,stride | hxx hxy hxz hyy hyz hzz via h,stride).
  void evaluate_vgh(TStore x, TStore y, TStore z, TStore* MQC_RESTRICT v, TStore* MQC_RESTRICT g,
                    TStore* MQC_RESTRICT h, std::size_t stride) const
  {
    weights_type w;
    compute_weights_vgh(cgrid_, static_cast<TCompute>(x), static_cast<TCompute>(y),
                        static_cast<TCompute>(z), w);
    evaluate_vgh_w(w, v, g, h, stride);
  }

  // -- precomputed-weights kernels (unit of multi-position work) -----------
  //
  // The weights must have been computed on this engine's eval_grid() (for an
  // AoSoA tile: the shared full-set grid) with compute_weights_v / _vgh or
  // their batch variants.

  void evaluate_v_w(const weights_type& w, TStore* MQC_RESTRICT v) const
  {
    if constexpr (!is_mixed) {
      v_term<true>(w, 0, 0, v);
      for (int i = 0; i < 4; ++i)
        for (int j = (i == 0 ? 1 : 0); j < 4; ++j)
          v_term<false>(w, i, j, v);
    } else {
      // Mixed: accumulate every (i,j) term of a kBlock-wide slice into a
      // TCompute tile, then narrow once.  Per element the chain of adds is
      // order-identical to the same-type kernel's, so a DP reference run
      // over an upcast copy of this table reproduces these outputs exactly
      // (up to the final narrowing store).
      const int np = static_cast<int>(coefs_->padded_splines());
      alignas(kAlignment) TCompute acc[kBlock];
      for (int n0 = 0; n0 < np; n0 += kBlock) {
        const int nb = std::min(kBlock, np - n0);
        v_term_blk<true>(w, 0, 0, n0, nb, acc);
        for (int i = 0; i < 4; ++i)
          for (int j = (i == 0 ? 1 : 0); j < 4; ++j)
            v_term_blk<false>(w, i, j, n0, nb, acc);
        narrow_store(acc, nb, v + n0);
      }
    }
  }

  void evaluate_vgl_w(const weights_type& w, TStore* MQC_RESTRICT v, TStore* MQC_RESTRICT g,
                      TStore* MQC_RESTRICT l, std::size_t stride) const
  {
    assert(stride >= coefs_->padded_splines() && stride % simd_lanes<TStore> == 0);
    TStore* MQC_RESTRICT gx = g;
    TStore* MQC_RESTRICT gy = g + stride;
    TStore* MQC_RESTRICT gz = g + 2 * stride;
    if constexpr (!is_mixed) {
      vgl_term<true>(w, 0, 0, v, gx, gy, gz, l);
      for (int i = 0; i < 4; ++i)
        for (int j = (i == 0 ? 1 : 0); j < 4; ++j)
          vgl_term<false>(w, i, j, v, gx, gy, gz, l);
    } else {
      const int np = static_cast<int>(coefs_->padded_splines());
      alignas(kAlignment) TCompute acc[5][kBlock];
      for (int n0 = 0; n0 < np; n0 += kBlock) {
        const int nb = std::min(kBlock, np - n0);
        vgl_term_blk<true>(w, 0, 0, n0, nb, acc);
        for (int i = 0; i < 4; ++i)
          for (int j = (i == 0 ? 1 : 0); j < 4; ++j)
            vgl_term_blk<false>(w, i, j, n0, nb, acc);
        narrow_store(acc[0], nb, v + n0);
        narrow_store(acc[1], nb, gx + n0);
        narrow_store(acc[2], nb, gy + n0);
        narrow_store(acc[3], nb, gz + n0);
        narrow_store(acc[4], nb, l + n0);
      }
    }
  }

  void evaluate_vgh_w(const weights_type& w, TStore* MQC_RESTRICT v, TStore* MQC_RESTRICT g,
                      TStore* MQC_RESTRICT h, std::size_t stride) const
  {
    assert(stride >= coefs_->padded_splines() && stride % simd_lanes<TStore> == 0);
    TStore* MQC_RESTRICT gx = g;
    TStore* MQC_RESTRICT gy = g + stride;
    TStore* MQC_RESTRICT gz = g + 2 * stride;
    TStore* MQC_RESTRICT hxx = h;
    TStore* MQC_RESTRICT hxy = h + stride;
    TStore* MQC_RESTRICT hxz = h + 2 * stride;
    TStore* MQC_RESTRICT hyy = h + 3 * stride;
    TStore* MQC_RESTRICT hyz = h + 4 * stride;
    TStore* MQC_RESTRICT hzz = h + 5 * stride;
    if constexpr (!is_mixed) {
      vgh_term<true>(w, 0, 0, v, gx, gy, gz, hxx, hxy, hxz, hyy, hyz, hzz);
      for (int i = 0; i < 4; ++i)
        for (int j = (i == 0 ? 1 : 0); j < 4; ++j)
          vgh_term<false>(w, i, j, v, gx, gy, gz, hxx, hxy, hxz, hyy, hyz, hzz);
    } else {
      const int np = static_cast<int>(coefs_->padded_splines());
      // 10 components x 64 doubles = 5120 B of stack tile — L1-resident.
      alignas(kAlignment) TCompute acc[10][kBlock];
      for (int n0 = 0; n0 < np; n0 += kBlock) {
        const int nb = std::min(kBlock, np - n0);
        vgh_term_blk<true>(w, 0, 0, n0, nb, acc);
        for (int i = 0; i < 4; ++i)
          for (int j = (i == 0 ? 1 : 0); j < 4; ++j)
            vgh_term_blk<false>(w, i, j, n0, nb, acc);
        narrow_store(acc[0], nb, v + n0);
        narrow_store(acc[1], nb, gx + n0);
        narrow_store(acc[2], nb, gy + n0);
        narrow_store(acc[3], nb, gz + n0);
        narrow_store(acc[4], nb, hxx + n0);
        narrow_store(acc[5], nb, hxy + n0);
        narrow_store(acc[6], nb, hxz + n0);
        narrow_store(acc[7], nb, hyy + n0);
        narrow_store(acc[8], nb, hyz + n0);
        narrow_store(acc[9], nb, hzz + n0);
      }
    }
  }

  // -- multi-position block kernels ----------------------------------------
  //
  // Evaluate `count` precomputed weight sets back to back against this
  // engine's coefficient table; position p writes into v[p] (g[p], ...), all
  // sharing one component stride.  While the block runs, the table (for an
  // AoSoA tile: the 4*Ng*Nb-byte slice) stays cache-resident and is streamed
  // from memory once instead of `count` times.

  void evaluate_v_multi(const weights_type* w, int count, TStore* const* v) const
  {
    for (int p = 0; p < count; ++p)
      evaluate_v_w(w[p], v[p]);
  }

  void evaluate_vgl_multi(const weights_type* w, int count, TStore* const* v, TStore* const* g,
                          TStore* const* l, std::size_t stride) const
  {
    for (int p = 0; p < count; ++p)
      evaluate_vgl_w(w[p], v[p], g[p], l[p], stride);
  }

  void evaluate_vgh_multi(const weights_type* w, int count, TStore* const* v, TStore* const* g,
                          TStore* const* h, std::size_t stride) const
  {
    for (int p = 0; p < count; ++p)
      evaluate_vgh_w(w[p], v[p], g[p], h[p], stride);
  }

  /// Position-based convenience: computes the block's weight sets up front
  /// via the core/weights.h batch helper, then runs the block kernel.
  void evaluate_v_multi(const Vec3<TStore>* pos, int count, TStore* const* v) const
  {
    std::vector<weights_type> w(static_cast<std::size_t>(count));
    compute_weights_v_batch(cgrid_, pos, count, w.data());
    evaluate_v_multi(w.data(), count, v);
  }

  void evaluate_vgl_multi(const Vec3<TStore>* pos, int count, TStore* const* v, TStore* const* g,
                          TStore* const* l, std::size_t stride) const
  {
    std::vector<weights_type> w(static_cast<std::size_t>(count));
    compute_weights_vgh_batch(cgrid_, pos, count, w.data());
    evaluate_vgl_multi(w.data(), count, v, g, l, stride);
  }

  void evaluate_vgh_multi(const Vec3<TStore>* pos, int count, TStore* const* v, TStore* const* g,
                          TStore* const* h, std::size_t stride) const
  {
    std::vector<weights_type> w(static_cast<std::size_t>(count));
    compute_weights_vgh_batch(cgrid_, pos, count, w.data());
    evaluate_vgh_multi(w.data(), count, v, g, h, stride);
  }

  /// Convenience overloads using the engine's natural stride.
  void evaluate_vgl(TStore x, TStore y, TStore z, TStore* v, TStore* g, TStore* l) const
  {
    evaluate_vgl(x, y, z, v, g, l, out_stride());
  }
  void evaluate_vgh(TStore x, TStore y, TStore z, TStore* v, TStore* g, TStore* h) const
  {
    evaluate_vgh(x, y, z, v, g, h, out_stride());
  }

  /// Ablation variant (study 1 of bench_ablation): SoA output layout but
  /// WITHOUT the fused z-sums — the inner loop still walks all 64 (i,j,k)
  /// sub-cubes as the baseline does.  Isolates the layout transformation from the z-loop
  /// unrolling so the bench harness can attribute the Opt-A gain.  Also kept
  /// on the old fill_n-then-accumulate scheme, so it doubles as the ablation
  /// reference for the zero-fill elimination.  Same-type engines only — the
  /// mixed path has no legacy scheme to ablate against.
  void evaluate_vgh_no_zunroll(TStore x, TStore y, TStore z, TStore* MQC_RESTRICT v,
                               TStore* MQC_RESTRICT g, TStore* MQC_RESTRICT h,
                               std::size_t stride) const
    requires(!is_mixed)
  {
    using T = TStore;
    assert(stride >= coefs_->padded_splines() && stride % simd_lanes<T> == 0);
    BsplineWeights3D<T> w;
    compute_weights_vgh(coefs_->grid(), x, y, z, w);
    const int np = static_cast<int>(coefs_->padded_splines());
    T* MQC_RESTRICT gx = g;
    T* MQC_RESTRICT gy = g + stride;
    T* MQC_RESTRICT gz = g + 2 * stride;
    T* MQC_RESTRICT hxx = h;
    T* MQC_RESTRICT hxy = h + stride;
    T* MQC_RESTRICT hxz = h + 2 * stride;
    T* MQC_RESTRICT hyy = h + 3 * stride;
    T* MQC_RESTRICT hyz = h + 4 * stride;
    T* MQC_RESTRICT hzz = h + 5 * stride;
    std::fill_n(v, static_cast<std::size_t>(np), T(0));
    for (int q = 0; q < 3; ++q)
      std::fill_n(g + static_cast<std::size_t>(q) * stride, static_cast<std::size_t>(np), T(0));
    for (int q = 0; q < 6; ++q)
      std::fill_n(h + static_cast<std::size_t>(q) * stride, static_cast<std::size_t>(np), T(0));
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        for (int k = 0; k < 4; ++k) {
          const T* MQC_RESTRICT p = coefs_->row(w.i0 + i, w.j0 + j, w.k0 + k);
          const T wv = w.a[i] * w.b[j] * w.c[k];
          const T wx = w.da[i] * w.b[j] * w.c[k];
          const T wy = w.a[i] * w.db[j] * w.c[k];
          const T wz = w.a[i] * w.b[j] * w.dc[k];
          const T wxx = w.d2a[i] * w.b[j] * w.c[k];
          const T wxy = w.da[i] * w.db[j] * w.c[k];
          const T wxz = w.da[i] * w.b[j] * w.dc[k];
          const T wyy = w.a[i] * w.d2b[j] * w.c[k];
          const T wyz = w.a[i] * w.db[j] * w.dc[k];
          const T wzz = w.a[i] * w.b[j] * w.d2c[k];
          MQC_SIMD_ALIGNED(v, gx, gy, gz, hxx, hxy, hxz, hyy, hyz, hzz, p)
          for (int n = 0; n < np; ++n) {
            const T pn = p[n];
            v[n] += wv * pn;
            gx[n] += wx * pn;
            gy[n] += wy * pn;
            gz[n] += wz * pn;
            hxx[n] += wxx * pn;
            hxy[n] += wxy * pn;
            hxz[n] += wxz * pn;
            hyy[n] += wyy * pn;
            hyz[n] += wyz * pn;
            hzz[n] += wzz * pn;
          }
        }
  }

private:
  // One (i,j) term of the tensor-product sum, z loop fused.  First=true
  // stores (`=`) into the output streams, First=false accumulates (`+=`);
  // running the (0,0) term with stores is what eliminates the zero-fill
  // pass.  The three kernels share this structure; each reads exactly the
  // four coefficient rows (i, j, k0..k0+3).
  //
  // Same-type engines accumulate straight into the caller's output streams
  // (`*_term`).  Mixed engines must NOT round-trip partial sums through the
  // narrow output type, so they run the identical term sequence over a
  // TCompute accumulation tile of kBlock elements (`*_term_blk`) and narrow
  // once per element at the end of the block.

  /// Accumulation-tile width for the mixed path: a multiple of both types'
  /// SIMD lane counts; 10 components x kBlock doubles = 5 KiB on the stack.
  static constexpr int kBlock = 64;

  void narrow_store(const TCompute* MQC_RESTRICT acc, int nb, TStore* MQC_RESTRICT out) const
  {
    for (int n = 0; n < nb; ++n)
      out[n] = static_cast<TStore>(acc[n]);
  }

  template <bool First>
  void v_term(const weights_type& w, int i, int j, TStore* MQC_RESTRICT v) const
  {
    using T = TStore;
    const int np = static_cast<int>(coefs_->padded_splines());
    const std::size_t zs = coefs_->stride_z();
    const T* MQC_RESTRICT p0 = coefs_->row(w.i0 + i, w.j0 + j, w.k0);
    const T* MQC_RESTRICT p1 = p0 + zs;
    const T* MQC_RESTRICT p2 = p0 + 2 * zs;
    const T* MQC_RESTRICT p3 = p0 + 3 * zs;
    const T pre00 = w.a[i] * w.b[j];
    const T c0 = w.c[0], c1 = w.c[1], c2 = w.c[2], c3 = w.c[3];
    MQC_SIMD_ALIGNED(v, p0, p1, p2, p3)
    for (int n = 0; n < np; ++n) {
      const T s = pre00 * (c0 * p0[n] + c1 * p1[n] + c2 * p2[n] + c3 * p3[n]);
      if constexpr (First)
        v[n] = s;
      else
        v[n] += s;
    }
  }

  template <bool First>
  void vgl_term(const weights_type& w, int i, int j, TStore* MQC_RESTRICT v,
                TStore* MQC_RESTRICT gx, TStore* MQC_RESTRICT gy, TStore* MQC_RESTRICT gz,
                TStore* MQC_RESTRICT l) const
  {
    using T = TStore;
    const int np = static_cast<int>(coefs_->padded_splines());
    const std::size_t zs = coefs_->stride_z();
    const T* MQC_RESTRICT p0 = coefs_->row(w.i0 + i, w.j0 + j, w.k0);
    const T* MQC_RESTRICT p1 = p0 + zs;
    const T* MQC_RESTRICT p2 = p0 + 2 * zs;
    const T* MQC_RESTRICT p3 = p0 + 3 * zs;
    const T pre00 = w.a[i] * w.b[j];
    const T pre01 = w.a[i] * w.db[j];
    const T pre10 = w.da[i] * w.b[j];
    const T pre2t = w.d2a[i] * w.b[j] + w.a[i] * w.d2b[j]; // (d2x + d2y) factor
    const T c0 = w.c[0], c1 = w.c[1], c2 = w.c[2], c3 = w.c[3];
    const T dc0 = w.dc[0], dc1 = w.dc[1], dc2 = w.dc[2], dc3 = w.dc[3];
    const T e0 = w.d2c[0], e1 = w.d2c[1], e2 = w.d2c[2], e3 = w.d2c[3];
    MQC_SIMD_ALIGNED(v, gx, gy, gz, l, p0, p1, p2, p3)
    for (int n = 0; n < np; ++n) {
      const T P0 = p0[n], P1 = p1[n], P2 = p2[n], P3 = p3[n];
      const T s = c0 * P0 + c1 * P1 + c2 * P2 + c3 * P3;
      const T ds = dc0 * P0 + dc1 * P1 + dc2 * P2 + dc3 * P3;
      const T d2s = e0 * P0 + e1 * P1 + e2 * P2 + e3 * P3;
      if constexpr (First) {
        v[n] = pre00 * s;
        gx[n] = pre10 * s;
        gy[n] = pre01 * s;
        gz[n] = pre00 * ds;
        l[n] = pre2t * s + pre00 * d2s;
      } else {
        v[n] += pre00 * s;
        gx[n] += pre10 * s;
        gy[n] += pre01 * s;
        gz[n] += pre00 * ds;
        l[n] += pre2t * s + pre00 * d2s;
      }
    }
  }

  template <bool First>
  void vgh_term(const weights_type& w, int i, int j, TStore* MQC_RESTRICT v,
                TStore* MQC_RESTRICT gx, TStore* MQC_RESTRICT gy, TStore* MQC_RESTRICT gz,
                TStore* MQC_RESTRICT hxx, TStore* MQC_RESTRICT hxy, TStore* MQC_RESTRICT hxz,
                TStore* MQC_RESTRICT hyy, TStore* MQC_RESTRICT hyz, TStore* MQC_RESTRICT hzz) const
  {
    using T = TStore;
    const int np = static_cast<int>(coefs_->padded_splines());
    const std::size_t zs = coefs_->stride_z();
    const T* MQC_RESTRICT p0 = coefs_->row(w.i0 + i, w.j0 + j, w.k0);
    const T* MQC_RESTRICT p1 = p0 + zs;
    const T* MQC_RESTRICT p2 = p0 + 2 * zs;
    const T* MQC_RESTRICT p3 = p0 + 3 * zs;
    const T pre00 = w.a[i] * w.b[j];
    const T pre01 = w.a[i] * w.db[j];
    const T pre02 = w.a[i] * w.d2b[j];
    const T pre10 = w.da[i] * w.b[j];
    const T pre11 = w.da[i] * w.db[j];
    const T pre20 = w.d2a[i] * w.b[j];
    const T c0 = w.c[0], c1 = w.c[1], c2 = w.c[2], c3 = w.c[3];
    const T dc0 = w.dc[0], dc1 = w.dc[1], dc2 = w.dc[2], dc3 = w.dc[3];
    const T e0 = w.d2c[0], e1 = w.d2c[1], e2 = w.d2c[2], e3 = w.d2c[3];
    MQC_SIMD_ALIGNED(v, gx, gy, gz, hxx, hxy, hxz, hyy, hyz, hzz, p0, p1, p2, p3)
    for (int n = 0; n < np; ++n) {
      const T P0 = p0[n], P1 = p1[n], P2 = p2[n], P3 = p3[n];
      const T s = c0 * P0 + c1 * P1 + c2 * P2 + c3 * P3;
      const T ds = dc0 * P0 + dc1 * P1 + dc2 * P2 + dc3 * P3;
      const T d2s = e0 * P0 + e1 * P1 + e2 * P2 + e3 * P3;
      if constexpr (First) {
        v[n] = pre00 * s;
        gx[n] = pre10 * s;
        gy[n] = pre01 * s;
        gz[n] = pre00 * ds;
        hxx[n] = pre20 * s;
        hxy[n] = pre11 * s;
        hxz[n] = pre10 * ds;
        hyy[n] = pre02 * s;
        hyz[n] = pre01 * ds;
        hzz[n] = pre00 * d2s;
      } else {
        v[n] += pre00 * s;
        gx[n] += pre10 * s;
        gy[n] += pre01 * s;
        gz[n] += pre00 * ds;
        hxx[n] += pre20 * s;
        hxy[n] += pre11 * s;
        hxz[n] += pre10 * ds;
        hyy[n] += pre02 * s;
        hyz[n] += pre01 * ds;
        hzz[n] += pre00 * d2s;
      }
    }
  }

  // -- mixed-path block terms: identical term expressions and (i,j) order,
  // -- but over a TCompute tile covering splines [n0, n0+nb).

  template <bool First>
  void v_term_blk(const weights_type& w, int i, int j, int n0, int nb,
                  TCompute* MQC_RESTRICT acc) const
  {
    using T = TCompute;
    const std::size_t zs = coefs_->stride_z();
    const TStore* MQC_RESTRICT p0 = coefs_->row(w.i0 + i, w.j0 + j, w.k0) + n0;
    const TStore* MQC_RESTRICT p1 = p0 + zs;
    const TStore* MQC_RESTRICT p2 = p0 + 2 * zs;
    const TStore* MQC_RESTRICT p3 = p0 + 3 * zs;
    const T pre00 = w.a[i] * w.b[j];
    const T c0 = w.c[0], c1 = w.c[1], c2 = w.c[2], c3 = w.c[3];
    for (int n = 0; n < nb; ++n) {
      const T s = pre00 * (c0 * static_cast<T>(p0[n]) + c1 * static_cast<T>(p1[n]) +
                           c2 * static_cast<T>(p2[n]) + c3 * static_cast<T>(p3[n]));
      if constexpr (First)
        acc[n] = s;
      else
        acc[n] += s;
    }
  }

  template <bool First>
  void vgl_term_blk(const weights_type& w, int i, int j, int n0, int nb,
                    TCompute (&acc)[5][kBlock]) const
  {
    using T = TCompute;
    const std::size_t zs = coefs_->stride_z();
    const TStore* MQC_RESTRICT p0 = coefs_->row(w.i0 + i, w.j0 + j, w.k0) + n0;
    const TStore* MQC_RESTRICT p1 = p0 + zs;
    const TStore* MQC_RESTRICT p2 = p0 + 2 * zs;
    const TStore* MQC_RESTRICT p3 = p0 + 3 * zs;
    const T pre00 = w.a[i] * w.b[j];
    const T pre01 = w.a[i] * w.db[j];
    const T pre10 = w.da[i] * w.b[j];
    const T pre2t = w.d2a[i] * w.b[j] + w.a[i] * w.d2b[j];
    const T c0 = w.c[0], c1 = w.c[1], c2 = w.c[2], c3 = w.c[3];
    const T dc0 = w.dc[0], dc1 = w.dc[1], dc2 = w.dc[2], dc3 = w.dc[3];
    const T e0 = w.d2c[0], e1 = w.d2c[1], e2 = w.d2c[2], e3 = w.d2c[3];
    for (int n = 0; n < nb; ++n) {
      const T P0 = static_cast<T>(p0[n]), P1 = static_cast<T>(p1[n]);
      const T P2 = static_cast<T>(p2[n]), P3 = static_cast<T>(p3[n]);
      const T s = c0 * P0 + c1 * P1 + c2 * P2 + c3 * P3;
      const T ds = dc0 * P0 + dc1 * P1 + dc2 * P2 + dc3 * P3;
      const T d2s = e0 * P0 + e1 * P1 + e2 * P2 + e3 * P3;
      if constexpr (First) {
        acc[0][n] = pre00 * s;
        acc[1][n] = pre10 * s;
        acc[2][n] = pre01 * s;
        acc[3][n] = pre00 * ds;
        acc[4][n] = pre2t * s + pre00 * d2s;
      } else {
        acc[0][n] += pre00 * s;
        acc[1][n] += pre10 * s;
        acc[2][n] += pre01 * s;
        acc[3][n] += pre00 * ds;
        acc[4][n] += pre2t * s + pre00 * d2s;
      }
    }
  }

  template <bool First>
  void vgh_term_blk(const weights_type& w, int i, int j, int n0, int nb,
                    TCompute (&acc)[10][kBlock]) const
  {
    using T = TCompute;
    const std::size_t zs = coefs_->stride_z();
    const TStore* MQC_RESTRICT p0 = coefs_->row(w.i0 + i, w.j0 + j, w.k0) + n0;
    const TStore* MQC_RESTRICT p1 = p0 + zs;
    const TStore* MQC_RESTRICT p2 = p0 + 2 * zs;
    const TStore* MQC_RESTRICT p3 = p0 + 3 * zs;
    const T pre00 = w.a[i] * w.b[j];
    const T pre01 = w.a[i] * w.db[j];
    const T pre02 = w.a[i] * w.d2b[j];
    const T pre10 = w.da[i] * w.b[j];
    const T pre11 = w.da[i] * w.db[j];
    const T pre20 = w.d2a[i] * w.b[j];
    const T c0 = w.c[0], c1 = w.c[1], c2 = w.c[2], c3 = w.c[3];
    const T dc0 = w.dc[0], dc1 = w.dc[1], dc2 = w.dc[2], dc3 = w.dc[3];
    const T e0 = w.d2c[0], e1 = w.d2c[1], e2 = w.d2c[2], e3 = w.d2c[3];
    for (int n = 0; n < nb; ++n) {
      const T P0 = static_cast<T>(p0[n]), P1 = static_cast<T>(p1[n]);
      const T P2 = static_cast<T>(p2[n]), P3 = static_cast<T>(p3[n]);
      const T s = c0 * P0 + c1 * P1 + c2 * P2 + c3 * P3;
      const T ds = dc0 * P0 + dc1 * P1 + dc2 * P2 + dc3 * P3;
      const T d2s = e0 * P0 + e1 * P1 + e2 * P2 + e3 * P3;
      if constexpr (First) {
        acc[0][n] = pre00 * s;
        acc[1][n] = pre10 * s;
        acc[2][n] = pre01 * s;
        acc[3][n] = pre00 * ds;
        acc[4][n] = pre20 * s;
        acc[5][n] = pre11 * s;
        acc[6][n] = pre10 * ds;
        acc[7][n] = pre02 * s;
        acc[8][n] = pre01 * ds;
        acc[9][n] = pre00 * d2s;
      } else {
        acc[0][n] += pre00 * s;
        acc[1][n] += pre10 * s;
        acc[2][n] += pre01 * s;
        acc[3][n] += pre00 * ds;
        acc[4][n] += pre20 * s;
        acc[5][n] += pre11 * s;
        acc[6][n] += pre10 * ds;
        acc[7][n] += pre02 * s;
        acc[8][n] += pre01 * ds;
        acc[9][n] += pre00 * d2s;
      }
    }
  }

  std::shared_ptr<const CoefStorage<TStore>> coefs_;
  Grid3D<TCompute> cgrid_;
};

} // namespace mqc

#endif // MQC_CORE_BSPLINE_SOA_H
