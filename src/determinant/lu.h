// LU factorization with partial pivoting, determinant and inverse.
//
// The Slater-determinant machinery (paper Eq. 2-4) needs an O(N^3) reference
// inverse against which the O(N^2) Sherman-Morrison path is both seeded and
// verified.  No external BLAS/LAPACK is assumed; this is a self-contained
// double-precision implementation adequate for the N <= O(10^3) matrices QMC
// walkers carry.
#ifndef MQC_DETERMINANT_LU_H
#define MQC_DETERMINANT_LU_H

#include <vector>

#include "determinant/matrix.h"

namespace mqc {

/// In-place LU factorization (Doolittle, partial pivoting).
/// Returns false if the matrix is numerically singular.
/// piv[k] records the row swapped into position k at step k.
bool lu_factor(Matrix<double>& a, std::vector<int>& piv);

/// log|det| and sign from a factorization produced by lu_factor.
void lu_logdet(const Matrix<double>& lu, const std::vector<int>& piv, double& log_det,
               double& sign);

/// Invert in place given the factorization data (a holds LU on entry, the
/// row-major inverse on exit).  All n right-hand sides are solved at once:
/// the forward and back substitutions run as contiguous row updates
/// X(i,:) -= LU(i,j) * X(j,:) over the permuted identity.
void lu_invert(Matrix<double>& a, const std::vector<int>& piv);

/// Convenience: inverse + log|det| + sign of @p a (overwritten).
/// Returns false on singularity.
bool invert_matrix(Matrix<double>& a, double& log_det, double& sign);

/// C = A * B (naive triple loop; only the tests call it).
Matrix<double> matmul(const Matrix<double>& a, const Matrix<double>& b);

} // namespace mqc

#endif // MQC_DETERMINANT_LU_H
