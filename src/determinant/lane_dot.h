// The determinant engine's one dot-product kernel.
//
// The length-N dot products of the Slater determinant go through
// lane_dot_rows: the ratio's row dot (paper Eq. 3) and each row of the
// Sherman-Morrison matvec t = Ainv u.
// Its summation order is fixed by the source, not by the vector width: the
// fixed lane order of common/simd.h over the products a_i * b_i,
//
//   s_k = sum of a_i * b_i over i = k (mod 8), added in increasing i
//   dot = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
//
// so SSE2, AVX2, AVX-512 and the MQC_NO_VECTOR scalar build give the same
// bits for one FMA-contraction setting.  A `simd reduction` would vectorize
// too, but its order follows the vector width.
#ifndef MQC_DETERMINANT_LANE_DOT_H
#define MQC_DETERMINANT_LANE_DOT_H

#include "common/config.h"
#include "common/simd.h"
#include "determinant/matrix.h"

namespace mqc {

/// out[r] = rows[r] . x (length @p n) for R rows at once, each in the lane
/// order above: the rows share every load of @p x, and each result is
/// bit-identical to lane_dot(rows[r], x, n).
template <int R>
MQC_FORCE_INLINE void lane_dot_rows(const double* const* rows, const double* MQC_RESTRICT x,
                                    int n, double* out) noexcept
{
  double s[R][kSumLanes] = {};
  const int nfull = n - n % kSumLanes;
  for (int i = 0; i < nfull; i += kSumLanes)
    for (int r = 0; r < R; ++r) {
      const double* MQC_RESTRICT a = rows[r] + i;
      MQC_SIMD
      for (int l = 0; l < kSumLanes; ++l)
        s[r][l] += a[l] * x[i + l];
    }
  for (int r = 0; r < R; ++r) {
    for (int i = nfull; i < n; ++i)
      s[r][i - nfull] += rows[r][i] * x[i];
    out[r] = combine_lanes(s[r]);
  }
}

/// a . b over @p n elements, in the fixed lane order.
inline double lane_dot(const double* a, const double* b, int n) noexcept
{
  double d;
  lane_dot_rows<1>(&a, b, n, &d);
  return d;
}

/// y = M x: every row of @p m dotted with @p x by lane_dot_rows, several rows
/// per pass, so y[i] == lane_dot(m.row(i), x, m.cols()) bit for bit.
inline void lane_matvec(const Matrix<double>& m, const double* x, double* y) noexcept
{
  constexpr int kRows = 4;
  const int nr = m.rows();
  const int n = m.cols();
  int i = 0;
  for (; i + kRows <= nr; i += kRows) {
    const double* rows[kRows] = {m.row(i), m.row(i + 1), m.row(i + 2), m.row(i + 3)};
    lane_dot_rows<kRows>(rows, x, n, y + i);
  }
  for (; i < nr; ++i)
    y[i] = lane_dot(m.row(i), x, n);
}

} // namespace mqc

#endif // MQC_DETERMINANT_LANE_DOT_H
