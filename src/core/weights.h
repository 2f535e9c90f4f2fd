// Per-position weight computation shared by all evaluation engines.
//
// The cost of computing the 3x4(x3) prefactors at a random position is
// amortized over all N orbitals (paper §IV); engines call one of these
// functions once per evaluation and then stream the coefficient table.
#ifndef MQC_CORE_WEIGHTS_H
#define MQC_CORE_WEIGHTS_H

#include "common/vec3.h"
#include "core/bspline_basis.h"
#include "core/grid.h"

namespace mqc {

/// Value-only weights (kernel V).
template <typename T>
inline void compute_weights_v(const Grid3D<T>& g, T x, T y, T z, BsplineWeights3D<T>& w) noexcept
{
  const auto rx = g.x.reduce_periodic(x);
  const auto ry = g.y.reduce_periodic(y);
  const auto rz = g.z.reduce_periodic(z);
  w.i0 = rx.cell;
  w.j0 = ry.cell;
  w.k0 = rz.cell;
  bspline_weights(rx.frac, w.a);
  bspline_weights(ry.frac, w.b);
  bspline_weights(rz.frac, w.c);
}

/// Full weights with first/second derivatives scaled to physical units
/// (d/dx carries one factor of delta_inv, d2/dx2 two) — kernels VGL and VGH.
template <typename T>
inline void compute_weights_vgh(const Grid3D<T>& g, T x, T y, T z, BsplineWeights3D<T>& w) noexcept
{
  const auto rx = g.x.reduce_periodic(x);
  const auto ry = g.y.reduce_periodic(y);
  const auto rz = g.z.reduce_periodic(z);
  w.i0 = rx.cell;
  w.j0 = ry.cell;
  w.k0 = rz.cell;
  bspline_weights_d2(rx.frac, w.a, w.da, w.d2a);
  bspline_weights_d2(ry.frac, w.b, w.db, w.d2b);
  bspline_weights_d2(rz.frac, w.c, w.dc, w.d2c);
  const T dxi = g.x.delta_inv, dyi = g.y.delta_inv, dzi = g.z.delta_inv;
  for (int i = 0; i < 4; ++i) {
    w.da[i] *= dxi;
    w.d2a[i] *= dxi * dxi;
    w.db[i] *= dyi;
    w.d2b[i] *= dyi * dyi;
    w.dc[i] *= dzi;
    w.d2c[i] *= dzi * dzi;
  }
}

// -- position-block batch helpers (multi-position evaluation layer) --------
//
// A block of P positions shares one pass over each tile's coefficient table,
// so the weight sets for the whole block are computed up front and reused by
// every tile (all tiles of an AoSoA engine share the same grid) instead of
// being recomputed once per (tile, position).

/// Value-only weights for @p count positions.  The position element type @p U
/// may differ from the weight/grid type @p T (mixed precision: SP positions
/// widened exactly into DP weights); components are converted before the
/// periodic reduction so the whole weight chain runs in T.
template <typename T, typename U = T>
inline void compute_weights_v_batch(const Grid3D<T>& g, const Vec3<U>* pos, int count,
                                    BsplineWeights3D<T>* w) noexcept
{
  for (int p = 0; p < count; ++p)
    compute_weights_v(g, static_cast<T>(pos[p].x), static_cast<T>(pos[p].y),
                      static_cast<T>(pos[p].z), w[p]);
}

/// Full derivative weights for @p count positions (kernels VGL and VGH).
template <typename T, typename U = T>
inline void compute_weights_vgh_batch(const Grid3D<T>& g, const Vec3<U>* pos, int count,
                                      BsplineWeights3D<T>* w) noexcept
{
  for (int p = 0; p < count; ++p)
    compute_weights_vgh(g, static_cast<T>(pos[p].x), static_cast<T>(pos[p].y),
                        static_cast<T>(pos[p].z), w[p]);
}

} // namespace mqc

#endif // MQC_CORE_WEIGHTS_H
