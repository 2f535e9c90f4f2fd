// Two-body (electron-electron) Jastrow factor J2.
//
//   log psi_J2 = -sum_{i<j} u(r_ij)
//
// Per-electron derivatives (dr_ij = r_i - r_j, row i of an AA distance
// table):
//   grad_i = -sum_{j != i} u'(r_ij) * dr_ij / r_ij
//   lap_i  = -sum_{j != i} (u''(r_ij) + 2 u'(r_ij)/r_ij)
//
// The AA table stores no rows: the move ratio reads the two rows
// compute_temp left (the mover's current one and the proposal's), and the
// full evaluation recomputes each row from the positions into the thread's
// JastrowRowScratch.  Self-pairs are excluded by the table's self-distance
// sentinel (far beyond the functor cutoff), keeping the SoA inner loop
// branch-free.
#ifndef MQC_JASTROW_TWO_BODY_H
#define MQC_JASTROW_TWO_BODY_H

#include "common/aligned_allocator.h"
#include "common/vec3.h"
#include "distance/distance_table.h"
#include "jastrow/bspline_functor.h"

namespace mqc {

template <typename T>
class TwoBodyJastrowAoS
{
public:
  explicit TwoBodyJastrowAoS(const BsplineJastrowFunctor<T>& f) : f_(&f) {}

  T evaluate_log(const DistanceTableAA_AoS<T>& table, Vec3<T>* grad, T* lap) const
  {
    T usum = T(0);
    const int n = table.size();
    auto& scratch = JastrowRowScratch<T>::for_this_thread();
    scratch.ensure(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      table.compute_row(i, scratch.r.data(), scratch.dr.data());
      Vec3<T> g{};
      T l = T(0);
      for (int j = 0; j < n; ++j) {
        const T r = scratch.r[static_cast<std::size_t>(j)];
        T du, d2u;
        const T u = f_->evaluate(r, du, d2u);
        usum += u; // counts each pair twice; halved below
        const Vec3<T>& dr = scratch.dr[static_cast<std::size_t>(j)];
        const T rinv = r > T(0) ? T(1) / r : T(0);
        g += (du * rinv) * dr;
        l += d2u + T(2) * du * rinv;
      }
      grad[i] = T(-1) * g;
      lap[i] = -l;
    }
    return -T(0.5) * usum;
  }

  /// log(psi_new/psi_old) for a proposed move of electron iel (the old and
  /// temp rows must be primed via compute_temp).
  T ratio_log(const DistanceTableAA_AoS<T>& table, int iel) const
  {
    T u_old = T(0), u_new = T(0);
    for (int j = 0; j < table.size(); ++j) {
      if (j == iel)
        continue;
      u_old += f_->evaluate(table.old_r()[j]);
      u_new += f_->evaluate(table.temp_r()[j]);
    }
    return u_old - u_new;
  }

private:
  const BsplineJastrowFunctor<T>* f_;
};

template <typename T>
class TwoBodyJastrowSoA
{
public:
  explicit TwoBodyJastrowSoA(const BsplineJastrowFunctor<T>& f) : f_(&f) {}

  T evaluate_log(const DistanceTableAA_SoA<T>& table, Vec3<T>* grad, T* lap) const
  {
    T usum = T(0);
    const int n = table.size();
    auto& scratch = JastrowRowScratch<T>::for_this_thread();
    scratch.ensure(table.row_stride());
    aligned_vector<T>&u_row = scratch.u, &du_row = scratch.du, &d2u_row = scratch.d2u;
    T* MQC_RESTRICT r = scratch.r.data();
    T* MQC_RESTRICT dx = scratch.dx.data();
    T* MQC_RESTRICT dy = scratch.dy.data();
    T* MQC_RESTRICT dz = scratch.dz.data();
    for (int i = 0; i < n; ++i) {
      table.compute_row(i, r, dx, dy, dz);
      f_->evaluate_row(r, n, u_row.data(), du_row.data(), d2u_row.data());
      const T* MQC_RESTRICT u_r = u_row.data();
      const T* MQC_RESTRICT du_r = du_row.data();
      const T* MQC_RESTRICT d2u_r = d2u_row.data();
      T gx = T(0), gy = T(0), gz = T(0), l = T(0), u = T(0);
      MQC_SIMD_REDUCTION(+ : gx, gy, gz, l, u)
      for (int j = 0; j < n; ++j) {
        const T rinv = r[j] > T(0) ? T(1) / r[j] : T(0);
        const T fac = du_r[j] * rinv;
        u += u_r[j];
        gx += fac * dx[j];
        gy += fac * dy[j];
        gz += fac * dz[j];
        l += d2u_r[j] + T(2) * fac;
      }
      usum += u;
      grad[i] = Vec3<T>{-gx, -gy, -gz};
      lap[i] = -l;
    }
    return -T(0.5) * usum;
  }

  /// log(psi_new/psi_old) for the move compute_temp primed; the mover @p iel
  /// is implicit in the table's old row.
  T ratio_log(const DistanceTableAA_SoA<T>& table, [[maybe_unused]] int iel) const
  {
    const int n = table.size();
    // Self entries contribute zero through the cutoff sentinel in both rows.
    const T u_old = f_->sum_row(table.old_r(), n);
    const T u_new = f_->sum_row(table.temp_r(), n);
    return u_old - u_new;
  }

private:
  const BsplineJastrowFunctor<T>* f_;
};

} // namespace mqc

#endif // MQC_JASTROW_TWO_BODY_H
