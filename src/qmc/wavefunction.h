// Slater-Jastrow trial wave function (paper Eq. 1-4):
//
//   psi_T = exp(J1 + J2) * det[A_up] * det[A_dn],   A(n, e) = phi_n(r_e)
//
// assembled from the library's components: the SoA B-spline engine supplies
// phi / grad phi / lap phi, the SoA distance tables and Jastrow factors the
// correlation part, and the determinant engine the inverses, kept by a
// Sherman-Morrison update per accepted move (determinant/det_update.h).
// Implements the particle-by-particle protocol the paper's walkers run
// (ratio -> accept/reject) plus the local kinetic-energy estimator, with
// spin-restricted N_up == N_dn == N_orbitals.
//
// Crowd hook: ratio_log_v() prices a move from an externally evaluated
// orbital-value vector, so a lock-step crowd driver can batch the B-spline
// evaluations of W walkers (one evaluate_v_multi sweep of the coefficient
// table) and feed each wave function its slice.  ratio_log() is exactly
// ratio_log_v() fed from this wave function's own engine, so the two paths
// are bit-for-bit identical given bit-identical value vectors.
//
// Numerics follow QMCPACK: kernels in T (float in production), determinant
// algebra and accumulated logs in double.
#ifndef MQC_QMC_WAVEFUNCTION_H
#define MQC_QMC_WAVEFUNCTION_H

#include <cassert>
#include <cmath>
#include <memory>
#include <vector>

#include "common/vec3.h"
#include "core/bspline_soa.h"
#include "core/orbital_set.h"
#include "determinant/det_update.h"
#include "distance/distance_table.h"
#include "jastrow/one_body.h"
#include "jastrow/two_body.h"
#include "particles/lattice.h"
#include "particles/particle_set.h"
#include "qmc/walker.h"

namespace mqc {

template <typename T>
class SlaterJastrow
{
public:
  SlaterJastrow(std::shared_ptr<const CoefStorage<T>> orbitals, const Lattice& lattice,
                ParticleSetSoA<T> ions, BsplineJastrowFunctor<T> j1_functor,
                BsplineJastrowFunctor<T> j2_functor, MinImageMode mode = MinImageMode::Fast)
      : engine_(std::move(orbitals)), lattice_(&lattice), ions_(std::move(ions)),
        j1f_(std::move(j1_functor)), j2f_(std::move(j2_functor)), j1_(j1f_), j2_(j2f_),
        mode_(mode), out_(engine_.out_stride()), norb_(engine_.num_splines())
  {
  }

  [[nodiscard]] int num_orbitals() const noexcept { return norb_; }
  [[nodiscard]] int num_electrons() const noexcept { return 2 * norb_; }
  /// The orbital engine (read-only): crowd drivers use its grid and
  /// multi-position kernels to batch evaluations across walkers.
  [[nodiscard]] const BsplineSoA<T>& engine() const noexcept { return engine_; }

  /// Build all state from an electron configuration (O(N^3)).
  /// Returns false if either determinant is singular.
  bool initialize(const ParticleSetSoA<T>& elec)
  {
    assert(elec.size() == num_electrons());
    elec_ = elec;
    const int nel = num_electrons();
    ee_ = std::make_unique<DistanceTableAA_SoA<T>>(*lattice_, nel, mode_);
    ei_ = std::make_unique<DistanceTableAB_SoA<T>>(*lattice_, ions_, nel, mode_);
    ee_->evaluate(elec_);
    ei_->evaluate(elec_);

    std::vector<Vec3<T>> jg(static_cast<std::size_t>(nel));
    std::vector<T> jl(static_cast<std::size_t>(nel));
    log_jastrow_ = static_cast<double>(j2_.evaluate_log(*ee_, jg.data(), jl.data())) +
                   static_cast<double>(j1_.evaluate_log(*ei_, jg.data(), jl.data()));

    Matrix<double> a_up(norb_), a_dn(norb_);
    for (int e = 0; e < norb_; ++e) {
      fill_phi(elec_[e]);
      for (int n = 0; n < norb_; ++n)
        a_up(n, e) = phi_[static_cast<std::size_t>(n)] + (n == e ? 1.0 : 0.0);
    }
    for (int e = 0; e < norb_; ++e) {
      fill_phi(elec_[norb_ + e]);
      for (int n = 0; n < norb_; ++n)
        a_dn(n, e) = phi_[static_cast<std::size_t>(n)] + (n == e ? 1.0 : 0.0);
    }
    // The unit diagonal boost keeps synthetic orbital matrices well
    // conditioned (production orbitals are near-orthogonal); it is applied
    // consistently in ratio() below so the wave function stays exact.
    return det_up_.build(a_up) && det_dn_.build(a_dn);
  }

  /// log |psi| and the overall sign.
  [[nodiscard]] double log_psi() const noexcept
  {
    return log_jastrow_ + det_up_.log_det() + det_dn_.log_det();
  }
  [[nodiscard]] double sign() const noexcept { return det_up_.sign() * det_dn_.sign(); }

  /// log(|psi(r')| / |psi(r)|) for moving electron @p iel to @p rnew.
  /// Caches everything accept(iel) needs; reject() discards implicitly.
  double ratio_log(int iel, const Vec3<T>& rnew)
  {
    spo().evaluate_one(DerivLevel::V, rnew, out_.v.data(), nullptr, nullptr, out_.stride);
    return ratio_log_v(iel, rnew, out_.v.data());
  }

  /// Crowd entry point: identical to ratio_log(), but the orbital values at
  /// @p rnew (length num_orbitals, any layout-compatible buffer) were
  /// evaluated externally — typically one multi-position engine sweep shared
  /// by a whole crowd of walkers.
  double ratio_log_v(int iel, const Vec3<T>& rnew, const T* values)
  {
    ee_->compute_temp(elec_, rnew, iel);
    ei_->compute_temp(rnew);
    pending_jr_ = static_cast<double>(j2_.ratio_log(*ee_, iel)) +
                  static_cast<double>(j1_.ratio_log(*ei_, iel));
    phi_.resize(static_cast<std::size_t>(norb_));
    for (int n = 0; n < norb_; ++n)
      phi_[static_cast<std::size_t>(n)] = static_cast<double>(values[n]);
    const int col = iel < norb_ ? iel : iel - norb_;
    phi_[static_cast<std::size_t>(col)] += 1.0; // diagonal boost, see initialize()
    DetUpdater& det = iel < norb_ ? det_up_ : det_dn_;
    pending_det_ratio_ = det.ratio(phi_.data(), col);
    pending_iel_ = iel;
    pending_rnew_ = rnew;
    return pending_jr_ + std::log(std::abs(pending_det_ratio_));
  }

  /// Commit the last priced move.
  void accept(int iel)
  {
    assert(iel == pending_iel_ && "accept must follow ratio_log for the same electron");
    ee_->accept_move(iel);
    ei_->accept_move(iel);
    const int col = iel < norb_ ? iel : iel - norb_;
    DetUpdater& det = iel < norb_ ? det_up_ : det_dn_;
    det.accept_move(phi_.data(), col);
    elec_.set(iel, pending_rnew_);
    log_jastrow_ += pending_jr_;
    pending_iel_ = -1;
  }

  /// Discard the last priced move (tables keep temp rows; nothing committed).
  void reject(int) noexcept { pending_iel_ = -1; }

  /// Gradient and Laplacian of log psi per electron (both spin sectors).
  void grad_lap_log_psi(std::vector<Vec3<double>>& grad, std::vector<double>& lap)
  {
    const int nel = num_electrons();
    grad.assign(static_cast<std::size_t>(nel), Vec3<double>{});
    lap.assign(static_cast<std::size_t>(nel), 0.0);

    // Jastrow part.
    std::vector<Vec3<T>> jg(static_cast<std::size_t>(nel));
    std::vector<T> jl(static_cast<std::size_t>(nel), T(0));
    std::vector<Vec3<T>> jg1(static_cast<std::size_t>(nel));
    std::vector<T> jl1(static_cast<std::size_t>(nel), T(0));
    (void)j2_.evaluate_log(*ee_, jg.data(), jl.data());
    (void)j1_.evaluate_log(*ei_, jg1.data(), jl1.data());
    for (int i = 0; i < nel; ++i) {
      const auto u = static_cast<std::size_t>(i);
      grad[u] += Vec3<double>{static_cast<double>(jg[u].x + jg1[u].x),
                              static_cast<double>(jg[u].y + jg1[u].y),
                              static_cast<double>(jg[u].z + jg1[u].z)};
      lap[u] += static_cast<double>(jl[u]) + static_cast<double>(jl1[u]);
    }

    // Determinant part: grad log D = sum_n Ainv(e,n) grad phi_n(r_e),
    // lap log D = sum_n Ainv(e,n) lap phi_n - |grad log D|^2.
    for (int i = 0; i < nel; ++i) {
      const int col = i < norb_ ? i : i - norb_;
      const DetUpdater& det = i < norb_ ? det_up_ : det_dn_;
      const Vec3<T> r = elec_[i];
      spo().evaluate_one(DerivLevel::VGL, r, out_.v.data(), out_.g.data(), out_.l.data(),
                         out_.stride);
      const double* arow = det.inverse().row(col);
      Vec3<double> gd{};
      double ld = 0.0;
      for (int n = 0; n < norb_; ++n) {
        const auto un = static_cast<std::size_t>(n);
        const double w = arow[n];
        gd += w * Vec3<double>{static_cast<double>(out_.gx()[un]),
                               static_cast<double>(out_.gy()[un]),
                               static_cast<double>(out_.gz()[un])};
        ld += w * static_cast<double>(out_.l[un]);
      }
      // (The diagonal boost is position-independent, so it contributes no
      // gradient or Laplacian.)
      const auto u = static_cast<std::size_t>(i);
      grad[u] += gd;
      lap[u] += ld - norm2(gd);
    }
  }

  /// Local kinetic energy  -(1/2) sum_i (lap_i log psi + |grad_i log psi|^2).
  double kinetic_energy()
  {
    std::vector<Vec3<double>> grad;
    std::vector<double> lap;
    grad_lap_log_psi(grad, lap);
    double k = 0.0;
    for (std::size_t i = 0; i < grad.size(); ++i)
      k += lap[i] + norm2(grad[i]);
    return -0.5 * k;
  }

  [[nodiscard]] const ParticleSetSoA<T>& electrons() const noexcept { return elec_; }

private:
  /// The facade over this wave function's own engine.  Built per call (an
  /// OrbitalSet is two words and non-owning): a stored facade would dangle
  /// whenever the object — and the by-value engine_ inside it — is moved.
  [[nodiscard]] OrbitalSet<T> spo() const noexcept { return OrbitalSet<T>(engine_); }

  void fill_phi(const Vec3<T>& r)
  {
    spo().evaluate_one(DerivLevel::V, r, out_.v.data(), nullptr, nullptr, out_.stride);
    phi_.resize(static_cast<std::size_t>(norb_));
    for (int n = 0; n < norb_; ++n)
      phi_[static_cast<std::size_t>(n)] = static_cast<double>(out_.v[static_cast<std::size_t>(n)]);
  }

  BsplineSoA<T> engine_;
  const Lattice* lattice_;
  ParticleSetSoA<T> ions_;
  BsplineJastrowFunctor<T> j1f_, j2f_;
  OneBodyJastrowSoA<T> j1_;
  TwoBodyJastrowSoA<T> j2_;
  MinImageMode mode_;
  WalkerSoA<T> out_;
  int norb_;

  ParticleSetSoA<T> elec_;
  std::unique_ptr<DistanceTableAA_SoA<T>> ee_;
  std::unique_ptr<DistanceTableAB_SoA<T>> ei_;
  DetUpdater det_up_, det_dn_;
  double log_jastrow_ = 0.0;

  // Pending move cache (ratio_log -> accept protocol).
  std::vector<double> phi_;
  double pending_jr_ = 0.0;
  double pending_det_ratio_ = 0.0;
  int pending_iel_ = -1;
  Vec3<T> pending_rnew_{};
};

} // namespace mqc

#endif // MQC_QMC_WAVEFUNCTION_H
