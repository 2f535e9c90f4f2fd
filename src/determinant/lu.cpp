#include "determinant/lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/simd.h"

namespace mqc {

bool lu_factor(Matrix<double>& a, std::vector<int>& piv)
{
  const int n = a.rows();
  assert(a.cols() == n);
  piv.assign(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    int p = k;
    double pmax = std::abs(a(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    piv[static_cast<std::size_t>(k)] = p;
    if (pmax == 0.0)
      return false;
    if (p != k)
      for (int j = 0; j < n; ++j)
        std::swap(a(k, j), a(p, j));
    const double dinv = 1.0 / a(k, k);
    for (int i = k + 1; i < n; ++i) {
      const double m = a(i, k) * dinv;
      a(i, k) = m;
      if (m != 0.0)
        for (int j = k + 1; j < n; ++j)
          a(i, j) -= m * a(k, j);
    }
  }
  return true;
}

void lu_logdet(const Matrix<double>& lu, const std::vector<int>& piv, double& log_det,
               double& sign)
{
  const int n = lu.rows();
  log_det = 0.0;
  sign = 1.0;
  for (int k = 0; k < n; ++k) {
    const double d = lu(k, k);
    log_det += std::log(std::abs(d));
    if (d < 0.0)
      sign = -sign;
    if (piv[static_cast<std::size_t>(k)] != k)
      sign = -sign;
  }
}

void lu_invert(Matrix<double>& a, const std::vector<int>& piv)
{
  // Solve A X = I for every right-hand side at once.  X starts as the
  // row-permuted identity P I; the forward (unit L) and back (U)
  // substitutions then run as whole-row updates X(i,:) -= LU(i,j) * X(j,:)
  // in increasing j, so each entry sees the one-column solve's order while
  // every update is a contiguous axpy the compiler vectorizes.
  const int n = a.rows();
  Matrix<double> x(n);
  for (int i = 0; i < n; ++i)
    x(i, i) = 1.0;
  for (int k = 0; k < n; ++k) { // lu_factor's row swaps, in order
    const int p = piv[static_cast<std::size_t>(k)];
    if (p != k)
      std::swap_ranges(x.row(k), x.row(k) + n, x.row(p));
  }

  // X(i,:) -= LU(i,j) * X(j,:) for j in [j0, j1), four source rows per pass
  // over X(i,:): one load and store of the target row instead of four, and
  // per entry the same subtraction order as one row at a time.
  auto subtract_rows = [&](int i, int j0, int j1) {
    double* MQC_RESTRICT xi = x.row(i);
    const double* lu = a.row(i);
    int j = j0;
    for (; j + 4 <= j1; j += 4) {
      const double f0 = lu[j], f1 = lu[j + 1], f2 = lu[j + 2], f3 = lu[j + 3];
      const double* MQC_RESTRICT x0 = x.row(j);
      const double* MQC_RESTRICT x1 = x.row(j + 1);
      const double* MQC_RESTRICT x2 = x.row(j + 2);
      const double* MQC_RESTRICT x3 = x.row(j + 3);
      MQC_SIMD
      for (int c = 0; c < n; ++c)
        xi[c] = (((xi[c] - f0 * x0[c]) - f1 * x1[c]) - f2 * x2[c]) - f3 * x3[c];
    }
    for (; j < j1; ++j) {
      const double f = lu[j];
      const double* MQC_RESTRICT xj = x.row(j);
      MQC_SIMD
      for (int c = 0; c < n; ++c)
        xi[c] -= f * xj[c];
    }
  };
  for (int i = 1; i < n; ++i) // forward: L has a unit diagonal
    subtract_rows(i, 0, i);
  for (int i = n - 1; i >= 0; --i) {
    subtract_rows(i, i + 1, n);
    const double d = a(i, i);
    double* MQC_RESTRICT xi = x.row(i);
    MQC_SIMD
    for (int c = 0; c < n; ++c)
      xi[c] /= d;
  }
  a = std::move(x);
}

bool invert_matrix(Matrix<double>& a, double& log_det, double& sign)
{
  std::vector<int> piv;
  if (!lu_factor(a, piv))
    return false;
  lu_logdet(a, piv, log_det, sign);
  lu_invert(a, piv);
  return true;
}

Matrix<double> matmul(const Matrix<double>& a, const Matrix<double>& b)
{
  assert(a.cols() == b.rows());
  Matrix<double> c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0)
        continue;
      for (int j = 0; j < b.cols(); ++j)
        c(i, j) += aik * b(k, j);
    }
  return c;
}

} // namespace mqc
