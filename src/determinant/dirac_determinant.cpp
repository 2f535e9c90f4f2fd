#include "determinant/dirac_determinant.h"

#include <cassert>
#include <cmath>

#include "determinant/lane_dot.h"
#include "determinant/lu.h"

namespace mqc {

bool DiracDeterminant::build(const Matrix<double>& a)
{
  ainv_ = a;
  work_.assign(static_cast<std::size_t>(a.rows()), 0.0);
  return invert_matrix(ainv_, log_det_, sign_);
}

double DiracDeterminant::ratio(const double* u, int e) const
{
  return lane_dot(ainv_.row(e), u, ainv_.cols());
}

void DiracDeterminant::accept_move(const double* u, int e)
{
  // Column-e replacement:  A' = A + (u - a_e) e_e^T.
  // Sherman-Morrison:  Ainv' = Ainv - (Ainv (u - a_e) e_e^T Ainv) / R
  // which, using e_e^T Ainv = row e of Ainv and Ainv a_e = e_e, simplifies to
  //   t       = Ainv u                  (length N)
  //   Ainv'(i,:) = Ainv(i,:) - ((t_i - delta_ie) / R) * Ainv(e,:)
  const int n = ainv_.rows();
  double* t = work_.data();
  lane_matvec(ainv_, u, t);
  const double r = t[e]; // == ratio(u, e) bit for bit: same kernel, same lanes
  assert(r != 0.0 && "rejected (singular) move must not be accepted");
  t[e] -= 1.0;

  const double rinv = 1.0 / r;
  // Snapshot row e: it is itself updated (to Ainv(e,:)/R) and must not feed
  // the other rows after that.
  row_e_copy_.assign(ainv_.row(e), ainv_.row(e) + n);
  const double* row_e = row_e_copy_.data();
  for (int i = 0; i < n; ++i) {
    const double f = t[i] * rinv;
    if (f == 0.0)
      continue;
    double* row_i = ainv_.row(i);
    for (int j = 0; j < n; ++j)
      row_i[j] -= f * row_e[j];
  }

  log_det_ += std::log(std::abs(r));
  if (r < 0.0)
    sign_ = -sign_;
}

} // namespace mqc
