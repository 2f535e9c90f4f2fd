// Determinant-update policy: one front-end over the two update algorithms.
//
// The particle-by-particle protocol (ratio -> accept_move -> inverse) is the
// same whether the inverse is maintained by per-move Sherman-Morrison
// (DiracDeterminant) or by accumulating a rank-k window and applying it with
// the Woodbury identity (DelayedDeterminant, McDaniel et al.).  This wrapper
// lets the wave function and the miniQMC drivers switch algorithms from a
// single `delay_rank` knob without templating every consumer:
//
//   delay_rank <= 1  ->  Sherman-Morrison after every accepted move
//   delay_rank >= 2  ->  delayed rank-k updates with window k = delay_rank
//
// (A delay window of one is algebraically identical to Sherman-Morrison, so
// the classic engine serves both of the first two cases and the delayed
// engine is only engaged where it can actually amortize anything.)
#ifndef MQC_DETERMINANT_DET_UPDATE_H
#define MQC_DETERMINANT_DET_UPDATE_H

#include <cassert>

#include "common/threading.h"
#include "determinant/delayed_update.h"
#include "determinant/dirac_determinant.h"
#include "determinant/matrix.h"

namespace mqc {

enum class DetUpdateKind
{
  ShermanMorrison, ///< rank-1 update applied on every accept (DiracDeterminant)
  Delayed          ///< rank-k window flushed via Woodbury (DelayedDeterminant)
};

/// Map the drivers' single integer knob onto an algorithm.
inline constexpr DetUpdateKind det_update_kind(int delay_rank) noexcept
{
  return delay_rank >= 2 ? DetUpdateKind::Delayed : DetUpdateKind::ShermanMorrison;
}

class DetUpdater
{
public:
  DetUpdater() : DetUpdater(0) {}
  explicit DetUpdater(int delay_rank)
      : kind_(det_update_kind(delay_rank)), delayed_(delay_rank >= 2 ? delay_rank : 1)
  {
  }

  [[nodiscard]] DetUpdateKind kind() const noexcept { return kind_; }
  /// Window size of the delayed engine; 1 for Sherman-Morrison.
  [[nodiscard]] int delay() const noexcept
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.delay() : 1;
  }

  /// Hand the caller's inner team (common/threading.h) to the delayed
  /// engine's flush; no-op for Sherman-Morrison (its rank-1 update has no
  /// blocked sweep to distribute).  Bit-identical for every team size.
  void set_team(TeamHandle team) noexcept
  {
    if (kind_ == DetUpdateKind::Delayed)
      delayed_.set_team(team);
  }
  /// The flush team set_team() stored (serial for Sherman-Morrison).
  [[nodiscard]] TeamHandle team() const noexcept
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.team() : TeamHandle::serial();
  }

  bool build(const Matrix<double>& a)
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.build(a) : dirac_.build(a);
  }

  [[nodiscard]] int size() const noexcept
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.size() : dirac_.size();
  }
  [[nodiscard]] double log_det() const noexcept
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.log_det() : dirac_.log_det();
  }
  [[nodiscard]] double sign() const noexcept
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.sign() : dirac_.sign();
  }
  [[nodiscard]] int pending() const noexcept
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.pending() : 0;
  }

  /// det ratio for replacing column @p e with @p u (honours any pending
  /// delayed columns).
  [[nodiscard]] double ratio(const double* u, int e) const
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.ratio(u, e) : dirac_.ratio(u, e);
  }

  /// Commit a move previously priced with ratio().
  void accept_move(const double* u, int e)
  {
    if (kind_ == DetUpdateKind::Delayed)
      delayed_.accept_move(u, e);
    else
      dirac_.accept_move(u, e);
  }

  /// Apply any pending delayed window; no-op for Sherman-Morrison.
  void flush()
  {
    if (kind_ == DetUpdateKind::Delayed)
      delayed_.flush();
  }

  /// Inverse of the current orbital matrix.  Non-const because the delayed
  /// engine folds its pending window in first.
  const Matrix<double>& inverse()
  {
    return kind_ == DetUpdateKind::Delayed ? delayed_.inverse() : dirac_.inverse();
  }

  /// Deep-copy the active engine's state from @p other — the DMC
  /// walker-birth path (qmc/dmc_driver.cpp): a spawned child inherits its
  /// parent's inverse, log-det and any pending delayed-update window
  /// byte-for-byte, instead of rebuilding O(N^3) from scratch.  Both sides
  /// must be configured with the same delay_rank.  The inner-team binding is
  /// scheduling state, not walker state: the clone keeps its own team.
  void clone_state_from(const DetUpdater& other)
  {
    assert(kind_ == other.kind_ && delay() == other.delay());
    if (kind_ == DetUpdateKind::Delayed) {
      const TeamHandle keep = delayed_.team();
      delayed_ = other.delayed_;
      delayed_.set_team(keep);
    } else {
      dirac_ = other.dirac_;
    }
  }

  // checkpoint/restore access (qmc/checkpoint.cpp): the active engine as
  // selected by kind().  Only the active engine holds live state; the idle
  // one is default-constructed and excluded from snapshots.
  [[nodiscard]] DiracDeterminant& dirac() noexcept { return dirac_; }
  [[nodiscard]] const DiracDeterminant& dirac() const noexcept { return dirac_; }
  [[nodiscard]] DelayedDeterminant& delayed() noexcept { return delayed_; }
  [[nodiscard]] const DelayedDeterminant& delayed() const noexcept { return delayed_; }

private:
  DetUpdateKind kind_;
  DiracDeterminant dirac_;
  DelayedDeterminant delayed_;
};

} // namespace mqc

#endif // MQC_DETERMINANT_DET_UPDATE_H
