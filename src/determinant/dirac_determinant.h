// Slater-determinant engine (paper Eq. 2-4).
//
// Convention: A(i,j) = phi_i(r_j) — rows are orbitals, columns are electrons
// (paper Eq. 2).  A particle-by-particle move of electron e replaces column e
// with the freshly evaluated orbital vector u_n = phi_n(r_e'); the ratio
//
//   det A' / det A = sum_n u_n * Ainv(e, n)            (paper Eq. 3)
//
// is a contiguous dot product because we store Ainv row-major and the ratio
// reduces over row e (QMCPACK stores the transposed inverse for the same
// locality reason).  Accepted moves apply the Sherman-Morrison rank-1 update
// in O(N^2) instead of the O(N^3) re-inversion.
//
// The ratio and every row of the update's t = Ainv u go through one kernel
// (determinant/lane_dot.h) with a fixed lane order: eight partial sums, sum
// k over the products at i = k (mod 8) in increasing i, combined as
// ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)).  It vectorizes at any
// width without reassociating, so t[e] equals the ratio bit for bit and the
// vector and MQC_NO_VECTOR builds agree for one FMA-contraction setting.
#ifndef MQC_DETERMINANT_DIRAC_DETERMINANT_H
#define MQC_DETERMINANT_DIRAC_DETERMINANT_H

#include <utility>
#include <vector>

#include "determinant/matrix.h"

namespace mqc {

class DiracDeterminant
{
public:
  DiracDeterminant() = default;

  /// Initialize from the orbital matrix A (O(N^3) inversion).
  /// Returns false if A is singular.
  bool build(const Matrix<double>& a);

  [[nodiscard]] int size() const noexcept { return ainv_.rows(); }
  [[nodiscard]] double log_det() const noexcept { return log_det_; }
  [[nodiscard]] double sign() const noexcept { return sign_; }
  [[nodiscard]] const Matrix<double>& inverse() const noexcept { return ainv_; }

  /// det ratio for replacing column @p e with orbital values @p u (length N).
  [[nodiscard]] double ratio(const double* u, int e) const;

  /// Accept the move: Sherman-Morrison update of Ainv and the log-det.
  /// @p u must be the same vector the ratio was computed with.
  void accept_move(const double* u, int e);

  /// O(N^3) recompute from a fresh orbital matrix (drift correction /
  /// verification path).
  bool recompute(const Matrix<double>& a) { return build(a); }

  /// Restore a previously captured state (qmc/checkpoint.cpp).  The inverse
  /// is installed verbatim — NOT rebuilt from an orbital matrix — because a
  /// resumed trajectory must continue from the bit-exact accumulated
  /// Sherman-Morrison state, which a fresh O(N^3) inversion would not match.
  void restore(Matrix<double> ainv, double log_det, double sign)
  {
    ainv_ = std::move(ainv);
    log_det_ = log_det;
    sign_ = sign;
    // Size the update scratch like build() would: a restored engine may
    // never have been built (walker resurrected from a snapshot blob).
    work_.assign(static_cast<std::size_t>(ainv_.rows()), 0.0);
  }

private:
  Matrix<double> ainv_;
  double log_det_ = 0.0;
  double sign_ = 1.0;
  std::vector<double> work_;       ///< scratch for the rank-1 update
  std::vector<double> row_e_copy_; ///< snapshot of the pivot row during updates
};

} // namespace mqc

#endif // MQC_DETERMINANT_DIRAC_DETERMINANT_H
