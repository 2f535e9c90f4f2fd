// Crowd lock-step driver (tentpole of the batched-driver line of work).
//
// A *crowd* is a set of W walkers advanced through the Monte Carlo sweep in
// lock-step: when electron e is moved, the W trial positions are gathered
// and evaluated as ONE multi-position B-spline batch — the crowd plays the
// role of the position block of the PR 2 multi-evaluation layer, so each
// AoSoA tile's coefficient slice is streamed from memory once per crowd
// instead of once per walker.  Everything that is physically per-walker
// (distance tables, Jastrow ratios, determinant ratios, the Metropolis
// decision and its rng draw) stays per-walker, on the walker's own rng
// stream, in the walker's own state.  Because the per-walker arithmetic is
// untouched and the multi-position kernels are bit-identical to their
// single-position counterparts, a crowd trajectory is bit-for-bit the
// trajectory the per-walker driver produces from the same seeds — the
// equivalence the test suite enforces.  (Design follows the batched drivers
// of Luo et al., arXiv:1805.07406, on top of the source paper's engines.)
//
// Two consumers:
//   * run_miniqmc() — the float miniQMC sweep, batching VGH (moves), VGL
//     (kinetic) and quadrature V per crowd through crowd_sweep_steps
//     (qmc/crowd_sweep.h); the per-walker driver is crowds of one;
//   * WavefunctionCrowd<T> below — lock-step pricing for a set of
//     SlaterJastrow wave functions, templated so the equivalence tests can
//     run it in float and double.
#ifndef MQC_QMC_CROWD_DRIVER_H
#define MQC_QMC_CROWD_DRIVER_H

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/aligned_allocator.h"
#include "common/vec3.h"
#include "core/orbital_set.h"
#include "qmc/wavefunction.h"

namespace mqc {

/// Lock-step move pricing for a crowd of Slater-Jastrow wave functions.
///
/// All walkers must be built on the SAME orbital set (the usual QMC setup:
/// one read-only coefficient table shared by the whole population); the
/// crowd then evaluates the W trial positions of one electron move with a
/// single multi-position OrbitalSet request and feeds each wave function
/// its value slice through SlaterJastrow::ratio_log_v.  Accept/reject
/// remain per-walker calls on the underlying wave functions.
template <typename T>
class WavefunctionCrowd
{
public:
  /// @throws std::invalid_argument on an empty crowd, a null walker, or
  /// walkers built on different orbital sets — the batch sweep runs on
  /// walker 0's engine, so a walker with its own coefficient storage would
  /// silently receive another walker's orbital values (checked at runtime,
  /// not assert-only: this is a public API and the failure mode is wrong
  /// physics, not a crash).
  explicit WavefunctionCrowd(std::vector<SlaterJastrow<T>*> walkers)
      : walkers_(std::move(walkers))
  {
    if (walkers_.empty())
      throw std::invalid_argument("WavefunctionCrowd: empty crowd");
    for (const auto* w : walkers_) {
      if (w == nullptr)
        throw std::invalid_argument("WavefunctionCrowd: null walker");
      if (&w->engine().coefs() != &walkers_.front()->engine().coefs())
        throw std::invalid_argument("WavefunctionCrowd: walkers must share one orbital set");
    }
    spo_ = OrbitalSet<T>(walkers_.front()->engine());
    stride_ = walkers_.front()->engine().out_stride();
    vbuf_.resize(walkers_.size() * stride_);
    vptrs_.resize(walkers_.size());
    for (std::size_t i = 0; i < walkers_.size(); ++i)
      vptrs_[i] = vbuf_.data() + i * stride_;
    (void)ores_.weights_for(static_cast<int>(walkers_.size()));
  }

  [[nodiscard]] int size() const noexcept { return static_cast<int>(walkers_.size()); }
  [[nodiscard]] SlaterJastrow<T>& walker(int i) noexcept
  {
    return *walkers_[static_cast<std::size_t>(i)];
  }

  /// Hand this crowd its inner team (common/threading.h): the batched
  /// facade requests below schedule onto it.  Defaults to serial; any team
  /// size is bit-identical.
  void set_team(TeamHandle team) noexcept { team_ = team; }

  /// Price moving electron @p iel of every walker to its own trial position
  /// rnew[i], writing log(|psi'|/|psi|) into log_ratios[i].  One
  /// multi-position facade request serves the whole crowd; the per-walker
  /// correlation/determinant arithmetic is exactly SlaterJastrow::ratio_log's.
  void ratio_log(int iel, const Vec3<T>* rnew, double* log_ratios)
  {
    const int w = size();
    OrbitalEvalRequest<T> rq;
    rq.deriv = DerivLevel::V;
    rq.positions = rnew;
    rq.count = w;
    rq.v = vptrs_.data();
    rq.team = team_;
    spo_.evaluate(rq, ores_);
    for (int i = 0; i < w; ++i)
      log_ratios[i] = walkers_[static_cast<std::size_t>(i)]->ratio_log_v(
          iel, rnew[i], vptrs_[static_cast<std::size_t>(i)]);
  }

  /// Commit / discard walker @p i's pending move of electron @p iel.
  void accept(int i, int iel) { walkers_[static_cast<std::size_t>(i)]->accept(iel); }
  void reject(int i, int iel) noexcept { walkers_[static_cast<std::size_t>(i)]->reject(iel); }

private:
  std::vector<SlaterJastrow<T>*> walkers_;
  OrbitalSet<T> spo_;        ///< facade over walker 0's (shared) engine
  OrbitalResource<T> ores_;  ///< weight scratch for the crowd's requests
  TeamHandle team_ = TeamHandle::serial(); ///< inner team for batched requests
  std::size_t stride_ = 0;
  aligned_vector<T> vbuf_;   ///< W value slices, one facade request
  std::vector<T*> vptrs_;    ///< per-walker slice pointers
};

} // namespace mqc

#endif // MQC_QMC_CROWD_DRIVER_H
