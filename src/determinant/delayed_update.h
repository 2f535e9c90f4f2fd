// Delayed (rank-k) determinant updates — the QMCPACK follow-on optimization
// to the per-move Sherman-Morrison path, beyond the paper's scope (McDaniel
// et al., J. Chem. Phys. 147, 174107).  README "Crowd driver and delayed
// determinant updates" covers how delay_rank selects it and where it wins.
//
// Accepted column replacements are accumulated as a rank-k correction and
// applied to the stored inverse only when the delay window is full (or a
// flush is forced).  With all touched columns distinct,
//   A_k   = A_0 + U V^T,          U = [u_m - a0_{c_m}],  V = [e_{c_m}]
//   Ainv_k = B - (B U) S^{-1} (V^T B),   S = I_k + V^T B U,   B = Ainv_0
// (Woodbury identity).  Ratios during the delay are evaluated through the
// corrected row without materializing Ainv_k:
//   row_e(Ainv_k) . u = B_e . u - (BU)_e . S^{-1} (V^T B u)
//
// The flush applies the rank-k correction with tiled BLAS3-style loops (see
// flush() for the blocking argument); the data layout (BU, rows of B, small
// S) is exactly the production algorithm's, and equivalence with sequential
// Sherman-Morrison is enforced by the test suite.
#ifndef MQC_DETERMINANT_DELAYED_UPDATE_H
#define MQC_DETERMINANT_DELAYED_UPDATE_H

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/threading.h"
#include "determinant/lane_dot.h"
#include "determinant/lu.h"
#include "determinant/matrix.h"

namespace mqc {

class DelayedDeterminant
{
public:
  explicit DelayedDeterminant(int delay = 8) : delay_(delay) {}

  /// Initialize from the orbital matrix A (O(N^3)).
  bool build(const Matrix<double>& a)
  {
    binv_ = a;
    pending_cols_.clear();
    u_cols_.clear();
    bu_cols_.clear();
    vtb_rows_.clear();
    double dummy_sign;
    if (!invert_matrix(binv_, log_det_, dummy_sign))
      return false;
    sign_ = dummy_sign;
    a_current_ = a;
    return true;
  }

  [[nodiscard]] int size() const noexcept { return binv_.rows(); }
  [[nodiscard]] int delay() const noexcept { return delay_; }

  /// Thread team the flush may use (common/threading.h): the caller's inner
  /// team, handed down by the driver that owns this walker.  Defaults to
  /// serial.  Teams only split the flush's independent column blocks, so the
  /// result is bit-identical for every team size.
  void set_team(TeamHandle team) noexcept { team_ = team; }
  [[nodiscard]] TeamHandle team() const noexcept { return team_; }
  [[nodiscard]] int pending() const noexcept { return static_cast<int>(pending_cols_.size()); }
  [[nodiscard]] double log_det() const noexcept { return log_det_; }
  [[nodiscard]] double sign() const noexcept { return sign_; }

  /// det ratio for replacing column e with u, honouring pending updates.
  [[nodiscard]] double ratio(const double* u, int e) const
  {
    const int n = size();
    const int k = pending();
    double r = lane_dot(binv_.row(e), u, n);
    if (k == 0)
      return r;
    // tvec = V^T B u  (k entries: row c_m of B dot u).
    std::vector<double> tvec(static_cast<std::size_t>(k));
    for (int m = 0; m < k; ++m)
      tvec[static_cast<std::size_t>(m)] =
          lane_dot(vtb_rows_[static_cast<std::size_t>(m)].data(), u, n);
    // svec = S^{-1} tvec  (small dense solve).
    std::vector<double> svec = solve_small(tvec);
    for (int m = 0; m < k; ++m)
      r -= bu_cols_[static_cast<std::size_t>(m)][static_cast<std::size_t>(e)] *
           svec[static_cast<std::size_t>(m)];
    return r;
  }

  /// Accept a move previously priced by ratio(); flushes automatically when
  /// the delay window fills or the same electron is touched twice.
  void accept_move(const double* u, int e)
  {
    for (int c : pending_cols_)
      if (c == e) {
        flush();
        break;
      }
    const double r = ratio(u, e);
    assert(std::abs(r) > 0.0);
    const int n = size();

    // w = u - a0_e (the current *base* column of A, pre-pending updates).
    std::vector<double> w(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      w[static_cast<std::size_t>(i)] = u[i] - a_current_(i, e);
    // BU column: B w.
    std::vector<double> bw(static_cast<std::size_t>(n));
    lane_matvec(binv_, w.data(), bw.data());

    pending_cols_.push_back(e);
    u_cols_.push_back(std::move(w));
    bu_cols_.push_back(std::move(bw));
    vtb_rows_.emplace_back(binv_.row(e), binv_.row(e) + n);

    log_det_ += std::log(std::abs(r));
    if (r < 0.0)
      sign_ = -sign_;

    if (pending() >= delay_)
      flush();
  }

  /// Apply the accumulated rank-k correction to the stored inverse.
  ///
  /// The rank-k application Ainv -= BU * G is a tiled BLAS3-style update:
  /// loops are ordered (column block, row, m) so each row of the inverse is
  /// read and written ONCE per column block — with all k corrections
  /// applied while the k x JB panel of G sits in L1/L2 — instead of the
  /// inverse's n^2 doubles being swept k times as in the clarity-first
  /// (m, i, j) triple loop this replaces.  Per element the subtractions
  /// still happen in increasing-m order, so results are bit-identical to
  /// the unblocked loop (the equivalence tests compare exactly).
  ///
  /// When set_team() handed this walker an inner team, the column blocks
  /// are distributed over the team's threads: blocks touch disjoint column
  /// ranges of the inverse (and of nothing else), and within a block the
  /// (i, m, j) order is unchanged, so the threaded flush stays bit-identical
  /// to the serial one — only the k*n^2 sweep, the flush's only O(N^2)
  /// phase, is parallelized.
  void flush()
  {
    const int k = pending();
    if (k == 0)
      return;
    const int n = size();
    Matrix<double> s = correction_matrix();
    std::vector<int> piv;
    const bool ok = lu_factor(s, piv);
    assert(ok && "delay window produced a singular correction");
    (void)ok;
    lu_invert(s, piv);

    // Ainv_k = B - BU * Sinv * VtB.   G = Sinv * VtB is k x n (k^2 n work —
    // small next to the k n^2 update below, so left unblocked).
    Matrix<double> g(k, n);
    for (int m = 0; m < k; ++m)
      for (int l = 0; l < k; ++l) {
        const double sml = s(m, l);
        if (sml == 0.0)
          continue;
        const double* vtb = vtb_rows_[static_cast<std::size_t>(l)].data();
        double* grow = g.row(m);
        for (int j = 0; j < n; ++j)
          grow[j] += sml * vtb[j];
      }

    // Pack the BU columns into one k x n panel so the inner m loop reads
    // contiguous memory instead of hopping between per-column vectors.
    Matrix<double> bu(k, n);
    for (int m = 0; m < k; ++m)
      std::copy(bu_cols_[static_cast<std::size_t>(m)].begin(),
                bu_cols_[static_cast<std::size_t>(m)].end(), bu.row(m));

    constexpr int kColBlock = 256; // 2 KB of each G row per block
    const int nblocks = (n + kColBlock - 1) / kColBlock;
    auto sweep_block = [&](int jb) {
      const int j0 = jb * kColBlock;
      const int j1 = std::min(n, j0 + kColBlock);
      for (int i = 0; i < n; ++i) {
        double* MQC_RESTRICT row = binv_.row(i);
        for (int m = 0; m < k; ++m) {
          const double f = bu(m, i);
          if (f == 0.0)
            continue;
          const double* MQC_RESTRICT grow = g.row(m);
          for (int j = j0; j < j1; ++j)
            row[j] -= f * grow[j];
        }
      }
    };
    // Column blocks are disjoint and the per-element (i, m, j) order inside
    // a block is unchanged, so the team-scheduled sweep stays bit-identical
    // to the serial one (threading.h seam; width capped at nblocks).
    team_for(team_, nblocks, sweep_block);

    // Fold the pending columns into the base orbital matrix.
    for (int m = 0; m < k; ++m) {
      const int e = pending_cols_[static_cast<std::size_t>(m)];
      const double* w = u_cols_[static_cast<std::size_t>(m)].data();
      for (int i = 0; i < n; ++i)
        a_current_(i, e) += w[static_cast<std::size_t>(i)];
    }

    pending_cols_.clear();
    u_cols_.clear();
    bu_cols_.clear();
    vtb_rows_.clear();
  }

  /// Inverse of the *current* determinant matrix (flushes first).
  const Matrix<double>& inverse()
  {
    flush();
    return binv_;
  }

  // -- checkpoint/restore state access (qmc/checkpoint.cpp) -----------------
  //
  // A snapshot serializes the IN-FLIGHT delayed window verbatim — the base
  // inverse, the base orbital matrix, and the pending rank-k panel — instead
  // of forcing a flush at the snapshot point.  Flushing would be simpler to
  // serialize but is NOT trajectory-neutral: applying the Woodbury
  // correction regroups the floating-point arithmetic of every subsequent
  // ratio, so a run that snapshots mid-window would diverge bit-wise from
  // an uninterrupted run.  Serializing the panel keeps the snapshot a pure
  // observer (tests/test_checkpoint.cpp proves both the panel round-trip and
  // the end-to-end trajectory equality at delay_rank >= 2).

  [[nodiscard]] const Matrix<double>& base_inverse() const noexcept { return binv_; }
  [[nodiscard]] const Matrix<double>& base_matrix() const noexcept { return a_current_; }
  [[nodiscard]] const std::vector<int>& pending_columns() const noexcept { return pending_cols_; }
  [[nodiscard]] const std::vector<std::vector<double>>& pending_u() const noexcept
  {
    return u_cols_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& pending_bu() const noexcept
  {
    return bu_cols_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& pending_vtb() const noexcept
  {
    return vtb_rows_;
  }

  /// Install a previously captured state verbatim (counterpart of the
  /// accessors above).  The caller is responsible for shape consistency;
  /// sizes are asserted, not repaired.
  void restore(Matrix<double> binv, Matrix<double> a_current, double log_det, double sign,
               std::vector<int> pending_cols, std::vector<std::vector<double>> u_cols,
               std::vector<std::vector<double>> bu_cols,
               std::vector<std::vector<double>> vtb_rows)
  {
    assert(binv.rows() == a_current.rows() && binv.cols() == a_current.cols());
    assert(pending_cols.size() == u_cols.size() && pending_cols.size() == bu_cols.size() &&
           pending_cols.size() == vtb_rows.size());
    binv_ = std::move(binv);
    a_current_ = std::move(a_current);
    log_det_ = log_det;
    sign_ = sign;
    pending_cols_ = std::move(pending_cols);
    u_cols_ = std::move(u_cols);
    bu_cols_ = std::move(bu_cols);
    vtb_rows_ = std::move(vtb_rows);
  }

private:
  /// S = I + V^T B U:  S(m,l) = delta_ml + vtb_rows_[m] . u_cols_[l].
  [[nodiscard]] Matrix<double> correction_matrix() const
  {
    const int k = pending();
    const int n = size();
    Matrix<double> s(k);
    for (int m = 0; m < k; ++m)
      for (int l = 0; l < k; ++l)
        s(m, l) = (m == l ? 1.0 : 0.0) + lane_dot(vtb_rows_[static_cast<std::size_t>(m)].data(),
                                                  u_cols_[static_cast<std::size_t>(l)].data(), n);
    return s;
  }

  /// Solve S x = t with S = I + V^T B U assembled on the fly (k is small).
  [[nodiscard]] std::vector<double> solve_small(const std::vector<double>& t) const
  {
    const int k = pending();
    Matrix<double> s = correction_matrix();
    std::vector<int> piv;
    const bool ok = lu_factor(s, piv);
    assert(ok);
    (void)ok;
    // Forward/backward solve on the small factors.
    std::vector<double> x = t;
    for (int m = 0; m < k; ++m) {
      const int p = piv[static_cast<std::size_t>(m)];
      if (p != m)
        std::swap(x[static_cast<std::size_t>(m)], x[static_cast<std::size_t>(p)]);
    }
    for (int i = 1; i < k; ++i)
      for (int j = 0; j < i; ++j)
        x[static_cast<std::size_t>(i)] -= s(i, j) * x[static_cast<std::size_t>(j)];
    for (int i = k - 1; i >= 0; --i) {
      for (int j = i + 1; j < k; ++j)
        x[static_cast<std::size_t>(i)] -= s(i, j) * x[static_cast<std::size_t>(j)];
      x[static_cast<std::size_t>(i)] /= s(i, i);
    }
    return x;
  }

  int delay_;
  TeamHandle team_ = TeamHandle::serial(); ///< flush team (caller's inner team)
  Matrix<double> binv_;      ///< inverse of the base matrix A_0
  Matrix<double> a_current_; ///< base orbital matrix (pending cols not folded)
  double log_det_ = 0.0;
  double sign_ = 1.0;
  std::vector<int> pending_cols_;
  std::vector<std::vector<double>> u_cols_;   ///< w_m = u_m - a0_{c_m}
  std::vector<std::vector<double>> bu_cols_;  ///< B w_m
  std::vector<std::vector<double>> vtb_rows_; ///< row c_m of B
};

} // namespace mqc

#endif // MQC_DETERMINANT_DELAYED_UPDATE_H
