// Radial Jastrow functor on a bounded 1D cubic B-spline — the QMCPACK
// BsplineFunctor analogue (paper Tables II/III count "Jastrow" among the top
// three kernel groups).
//
// u(r) is a clamped cubic spline on [0, rcut] with
//   u'(0)    = cusp   (electron-nucleus or electron-electron cusp condition)
//   u(rcut)  = 0,  u'(rcut) = 0   (smooth truncation)
// and u(r) == 0 for r >= rcut.  In production the control points are
// variational parameters; here they are fitted to a physically-shaped
// exponential profile (see make_exponential), which exercises the identical
// evaluation path.
#ifndef MQC_JASTROW_BSPLINE_FUNCTOR_H
#define MQC_JASTROW_BSPLINE_FUNCTOR_H

#include <cassert>
#include <cmath>
#include <vector>

#include "common/aligned_allocator.h"
#include "common/config.h"
#include "common/simd.h"
#include "common/vec3.h"
#include "core/spline1d.h"

namespace mqc {

/// Per-thread scratch rows for the full Jastrow evaluations: the functor
/// values of the row kernels below, and the e-e distance row the two-body
/// evaluation recomputes from the positions (r with dx/dy/dz in the SoA
/// layout, r with dr in the AoS one).  One set is shared by every Jastrow
/// object on the thread (the drivers share a single const Jastrow across
/// walker threads, so the scratch cannot live in the object) and grows
/// monotonically, so steady-state evaluation never allocates.
template <typename T>
struct JastrowRowScratch
{
  aligned_vector<T> u, du, d2u;
  aligned_vector<T> r, dx, dy, dz;
  std::vector<Vec3<T>> dr;

  void ensure(std::size_t stride)
  {
    if (u.size() < stride) {
      for (aligned_vector<T>* row : {&u, &du, &d2u, &r, &dx, &dy, &dz})
        row->resize(stride);
      dr.resize(stride);
    }
  }

  static JastrowRowScratch& for_this_thread()
  {
    static thread_local JastrowRowScratch scratch;
    return scratch;
  }
};

template <typename T>
class BsplineJastrowFunctor
{
public:
  BsplineJastrowFunctor() = default;

  /// Fit to the profile u(r) = A * exp(-r/b) * (1 - r/rcut)^2 where A is
  /// chosen so that u'(0) == cusp.  The (1-r/rc)^2 factor gives the double
  /// root at rcut that makes the truncation C1.
  static BsplineJastrowFunctor make_exponential(T cusp, T b, T rcut, int num_points = 32)
  {
    assert(num_points >= 4);
    const double A = static_cast<double>(cusp) /
                     (-1.0 / static_cast<double>(b) - 2.0 / static_cast<double>(rcut));
    std::vector<double> samples(static_cast<std::size_t>(num_points));
    const double dr = static_cast<double>(rcut) / (num_points - 1);
    for (int i = 0; i < num_points; ++i) {
      const double r = i * dr;
      const double damp = 1.0 - r / static_cast<double>(rcut);
      samples[static_cast<std::size_t>(i)] = A * std::exp(-r / static_cast<double>(b)) * damp * damp;
    }
    BsplineJastrowFunctor f;
    f.rcut_ = rcut;
    f.spline_ = Spline1D<T>::clamped(T(0), rcut, samples, static_cast<double>(cusp), 0.0);
    return f;
  }

  /// Construct directly from control-point samples (variational use).
  static BsplineJastrowFunctor from_samples(T rcut, const std::vector<double>& samples, double cusp)
  {
    BsplineJastrowFunctor f;
    f.rcut_ = rcut;
    f.spline_ = Spline1D<T>::clamped(T(0), rcut, samples, cusp, 0.0);
    return f;
  }

  [[nodiscard]] T cutoff() const noexcept { return rcut_; }

  [[nodiscard]] T evaluate(T r) const noexcept { return r < rcut_ ? spline_.value(r) : T(0); }

  /// Value plus du/dr and d2u/dr2.
  T evaluate(T r, T& du, T& d2u) const noexcept
  {
    if (r >= rcut_) {
      du = T(0);
      d2u = T(0);
      return T(0);
    }
    T v;
    spline_.evaluate(r, v, du, d2u);
    return v;
  }

  // -- SoA row kernels ------------------------------------------------------
  // These are the QMCPACK-style vector paths: one branch-free SIMD loop over
  // a whole distance-table row, with the cutoff applied as a mask and the
  // spline table accessed through (small, cache-resident) gathers.  They are
  // what makes the SoA Jastrow evaluation vectorize; the scalar evaluate()
  // above remains the AoS baseline path.

  /// Sum of u over a distance row.  Entries at or beyond the cutoff
  /// (including the self-distance sentinel) contribute exactly zero.  The
  /// sum is the move ratio of both Jastrows, so it adds in the fixed lane
  /// order of common/simd.h: its bits do not depend on the vector width.
  [[nodiscard]] T sum_row(const T* MQC_RESTRICT r, int count) const noexcept
  {
    const T* MQC_RESTRICT cp = spline_.control_points().data();
    const T dinv = spline_.grid().delta_inv;
    const T num_cells = static_cast<T>(spline_.grid().num);
    const T rc = rcut_;
    auto u_at = [=](T rj) {
      // Clamp BEFORE the int cast: sentinel distances are ~1e10.
      T x = rj * dinv;
      x = x < num_cells ? x : num_cells;
      int i = static_cast<int>(x);
      i = i < static_cast<int>(num_cells) ? i : static_cast<int>(num_cells) - 1;
      const T t = x - static_cast<T>(i);
      const T t2 = t * t, t3 = t2 * t;
      constexpr T c6 = T(1) / T(6);
      const T a0 = c6 * (-t3 + T(3) * t2 - T(3) * t + T(1));
      const T a1 = c6 * (T(3) * t3 - T(6) * t2 + T(4));
      const T a2 = c6 * (T(-3) * t3 + T(3) * t2 + T(3) * t + T(1));
      const T a3 = c6 * t3;
      const T val = a0 * cp[i] + a1 * cp[i + 1] + a2 * cp[i + 2] + a3 * cp[i + 3];
      return rj < rc ? val : T(0);
    };
    T s[kSumLanes] = {};
    const int nfull = count - count % kSumLanes;
    for (int j = 0; j < nfull; j += kSumLanes) {
      MQC_SIMD
      for (int l = 0; l < kSumLanes; ++l)
        s[l] += u_at(r[j + l]);
    }
    for (int j = nfull; j < count; ++j)
      s[j - nfull] += u_at(r[j]);
    return combine_lanes(s);
  }

  /// u, du/dr and d2u/dr2 for a whole row (outputs masked to zero beyond the
  /// cutoff).  Buffers must not alias r.
  void evaluate_row(const T* MQC_RESTRICT r, int count, T* MQC_RESTRICT u, T* MQC_RESTRICT du,
                    T* MQC_RESTRICT d2u) const noexcept
  {
    const T* MQC_RESTRICT cp = spline_.control_points().data();
    const T dinv = spline_.grid().delta_inv;
    const T num_cells = static_cast<T>(spline_.grid().num);
    const T rc = rcut_;
    MQC_SIMD
    for (int j = 0; j < count; ++j) {
      T x = r[j] * dinv;
      x = x < num_cells ? x : num_cells;
      int i = static_cast<int>(x);
      i = i < static_cast<int>(num_cells) ? i : static_cast<int>(num_cells) - 1;
      const T t = x - static_cast<T>(i);
      const T t2 = t * t, t3 = t2 * t;
      constexpr T c6 = T(1) / T(6);
      const T a0 = c6 * (-t3 + T(3) * t2 - T(3) * t + T(1));
      const T a1 = c6 * (T(3) * t3 - T(6) * t2 + T(4));
      const T a2 = c6 * (T(-3) * t3 + T(3) * t2 + T(3) * t + T(1));
      const T a3 = c6 * t3;
      const T b0 = T(-0.5) * t2 + t - T(0.5);
      const T b1 = T(1.5) * t2 - T(2) * t;
      const T b2 = T(-1.5) * t2 + t + T(0.5);
      const T b3 = T(0.5) * t2;
      const T e0 = T(1) - t, e1 = T(3) * t - T(2), e2 = T(-3) * t + T(1), e3 = t;
      const T p0 = cp[i], p1 = cp[i + 1], p2 = cp[i + 2], p3 = cp[i + 3];
      const T mask = r[j] < rc ? T(1) : T(0);
      u[j] = mask * (a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3);
      du[j] = mask * dinv * (b0 * p0 + b1 * p1 + b2 * p2 + b3 * p3);
      d2u[j] = mask * dinv * dinv * (e0 * p0 + e1 * p1 + e2 * p2 + e3 * p3);
    }
  }

private:
  T rcut_ = T(1);
  Spline1D<T> spline_;
};

} // namespace mqc

#endif // MQC_JASTROW_BSPLINE_FUNCTOR_H
