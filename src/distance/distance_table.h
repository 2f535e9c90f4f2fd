// Distance tables — the second-hottest kernel group in the paper's profile
// (Tables II/III: 23-39% of run time before optimization).
//
// Two table kinds, each in two layouts:
//   AA — electron-electron, a cache of the positions: it holds the electron
//        positions, the proposal's row and the distances of the mover's
//        current one, and a reader that needs every row recomputes each from
//        the positions (compute_row).  No N x N table exists, so an accepted
//        move writes one position;
//   AB — ion-electron, sources fixed, one stored row per target electron.
//   AoS — Vec3 positions, scalar minimum image per pair (the baseline);
//   SoA — separate aligned x/y/z source streams, padded distance and
//         displacement-component rows, SIMD inner loops (the Opt-A treatment
//         applied to the particle abstractions, §V-A).
//
// Every row is computed by one row kernel per layout, so each table is a
// function of the positions it tracks: evaluate() on the same positions
// reproduces it bit for bit (the walker codec stores positions only).
//
// Self-distances in AA rows are set to a huge value so cutoff-based functors
// (Jastrow) skip them without a branch in the SIMD loop.
#ifndef MQC_DISTANCE_DISTANCE_TABLE_H
#define MQC_DISTANCE_DISTANCE_TABLE_H

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/aligned_allocator.h"
#include "common/config.h"
#include "common/simd.h"
#include "common/vec3.h"
#include "particles/lattice.h"
#include "particles/particle_set.h"

namespace mqc {

/// Self-distance sentinel: far beyond any physical cutoff.
template <typename T>
inline constexpr T kSelfDistance = T(1e10);

// --------------------------------------------------------------------------
// AoS baseline tables
// --------------------------------------------------------------------------

template <typename T>
class DistanceTableAA_AoS
{
public:
  DistanceTableAA_AoS(const Lattice& lattice, int n, MinImageMode mode = MinImageMode::Exact)
      : lattice_(&lattice), mode_(mode), n_(n), pos_(static_cast<std::size_t>(n)),
        temp_r_(static_cast<std::size_t>(n)), temp_dr_(static_cast<std::size_t>(n)),
        old_r_(static_cast<std::size_t>(n))
  {
  }

  [[nodiscard]] int size() const noexcept { return n_; }

  /// Take the positions every row is computed from.
  void evaluate(const ParticleSetAoS<T>& p)
  {
    assert(p.size() == n_);
    std::copy_n(p.data(), n_, pos_.begin());
  }

  /// Rows for a proposed move of electron @p iel to @p rnew: the proposal's
  /// (temp_r, temp_dr) and the distances of the mover's current one (old_r).
  /// Both come from the table's copy of the positions of @p p, which
  /// evaluate() took and accept_move() keeps current.  The current row is
  /// computed first, so the proposal's displacements overwrite its own.
  void compute_temp([[maybe_unused]] const ParticleSetAoS<T>& p, const Vec3<T>& rnew, int iel)
  {
    assert(p.size() == n_);
    row_from(pos_[static_cast<std::size_t>(iel)], iel, old_r_.data(), temp_dr_.data());
    row_from(rnew, iel, temp_r_.data(), temp_dr_.data());
    rnew_ = rnew;
    iel_ = iel;
  }

  /// Commit the position compute_temp priced.
  void accept_move(int iel)
  {
    assert(iel == iel_);
    pos_[static_cast<std::size_t>(iel)] = rnew_;
  }

  /// Row @p i from the positions: r[j] = |dr[j]|, dr[j] = min_image(r_i - r_j),
  /// the self entry the sentinel.  Both buffers hold size() entries.
  void compute_row(int i, T* r, Vec3<T>* dr) const
  {
    row_from(pos_[static_cast<std::size_t>(i)], i, r, dr);
  }

  [[nodiscard]] const T* temp_r() const noexcept { return temp_r_.data(); }
  [[nodiscard]] const Vec3<T>* temp_dr() const noexcept { return temp_dr_.data(); }
  [[nodiscard]] const T* old_r() const noexcept { return old_r_.data(); }

private:
  void row_from(const Vec3<T>& ri, int i, T* r, Vec3<T>* dr) const
  {
    for (int j = 0; j < n_; ++j) {
      if (j == i) {
        r[j] = kSelfDistance<T>;
        dr[j] = Vec3<T>{};
        continue;
      }
      const Vec3<T>& rj = pos_[static_cast<std::size_t>(j)];
      const Vec3<double> d = lattice_->min_image(
          Vec3<double>{static_cast<double>(ri.x - rj.x), static_cast<double>(ri.y - rj.y),
                       static_cast<double>(ri.z - rj.z)},
          mode_);
      dr[j] = Vec3<T>{static_cast<T>(d.x), static_cast<T>(d.y), static_cast<T>(d.z)};
      r[j] = static_cast<T>(norm(d));
    }
  }

  const Lattice* lattice_;
  MinImageMode mode_;
  int n_;
  std::vector<Vec3<T>> pos_;
  std::vector<T> temp_r_;
  std::vector<Vec3<T>> temp_dr_;
  std::vector<T> old_r_;
  Vec3<T> rnew_{};
  int iel_ = -1;
};

template <typename T>
class DistanceTableAB_AoS
{
public:
  DistanceTableAB_AoS(const Lattice& lattice, const ParticleSetAoS<T>& sources, int num_targets,
                      MinImageMode mode = MinImageMode::Exact)
      : lattice_(&lattice), mode_(mode), sources_(&sources), nt_(num_targets),
        ns_(sources.size()), r_(static_cast<std::size_t>(nt_) * ns_),
        dr_(static_cast<std::size_t>(nt_) * ns_), temp_r_(static_cast<std::size_t>(ns_)),
        temp_dr_(static_cast<std::size_t>(ns_))
  {
  }

  [[nodiscard]] int num_targets() const noexcept { return nt_; }
  [[nodiscard]] int num_sources() const noexcept { return ns_; }

  void evaluate(const ParticleSetAoS<T>& targets)
  {
    for (int i = 0; i < nt_; ++i)
      update_row(targets[i], i);
  }

  void update_row(const Vec3<T>& ri, int i)
  {
    for (int j = 0; j < ns_; ++j) {
      const Vec3<T> sj = (*sources_)[j];
      const Vec3<double> d = lattice_->min_image(
          Vec3<double>{static_cast<double>(ri.x - sj.x), static_cast<double>(ri.y - sj.y),
                       static_cast<double>(ri.z - sj.z)},
          mode_);
      dr_[static_cast<std::size_t>(i) * ns_ + j] =
          Vec3<T>{static_cast<T>(d.x), static_cast<T>(d.y), static_cast<T>(d.z)};
      r_[static_cast<std::size_t>(i) * ns_ + j] = static_cast<T>(norm(d));
    }
  }

  void compute_temp(const Vec3<T>& rnew)
  {
    for (int j = 0; j < ns_; ++j) {
      const Vec3<T> sj = (*sources_)[j];
      const Vec3<double> d = lattice_->min_image(
          Vec3<double>{static_cast<double>(rnew.x - sj.x), static_cast<double>(rnew.y - sj.y),
                       static_cast<double>(rnew.z - sj.z)},
          mode_);
      temp_dr_[static_cast<std::size_t>(j)] =
          Vec3<T>{static_cast<T>(d.x), static_cast<T>(d.y), static_cast<T>(d.z)};
      temp_r_[static_cast<std::size_t>(j)] = static_cast<T>(norm(d));
    }
  }

  void accept_move(int iel)
  {
    for (int j = 0; j < ns_; ++j) {
      r_[static_cast<std::size_t>(iel) * ns_ + j] = temp_r_[static_cast<std::size_t>(j)];
      dr_[static_cast<std::size_t>(iel) * ns_ + j] = temp_dr_[static_cast<std::size_t>(j)];
    }
  }

  [[nodiscard]] T dist(int i, int j) const noexcept
  {
    return r_[static_cast<std::size_t>(i) * ns_ + j];
  }
  [[nodiscard]] const Vec3<T>& displ(int i, int j) const noexcept
  {
    return dr_[static_cast<std::size_t>(i) * ns_ + j];
  }
  [[nodiscard]] const T* temp_r() const noexcept { return temp_r_.data(); }
  [[nodiscard]] const Vec3<T>* temp_dr() const noexcept { return temp_dr_.data(); }

private:
  const Lattice* lattice_;
  MinImageMode mode_;
  const ParticleSetAoS<T>* sources_;
  int nt_, ns_;
  std::vector<T> r_;
  std::vector<Vec3<T>> dr_;
  std::vector<T> temp_r_;
  std::vector<Vec3<T>> temp_dr_;
};

// --------------------------------------------------------------------------
// SoA tables
// --------------------------------------------------------------------------

/// The minimum-image wrap of one fractional coordinate, f - floor(f + 1/2),
/// written without std::floor, which vectorizes on x86-64 only from SSE4.1
/// (roundps).  For |y| below 2^p (p = 23 float, 52 double) adding and
/// subtracting 2^p rounds |y| to an integer exactly; the sign restored and one
/// subtracted where that lands above y, it is floor(y).  At or above 2^p (or
/// when not finite) y is its own floor.  This gives std::floor's bits for every
/// input, -0 included, under the default round-to-nearest and without
/// reassociation (the build's math flags keep both).
template <typename T>
inline T wrap_fraction(T f) noexcept
{
  constexpr T big = T(1) / std::numeric_limits<T>::epsilon();
  const T y = f + T(0.5);
  const T ay = std::abs(y);
  const T t = std::copysign((ay + big) - big, y);
  const T fl = t > y ? t - T(1) : t;
  return f - (ay < big ? fl : y);
}

/// Shared SIMD row kernel: distances/displacements from one target position
/// to all sources given as component streams.  Fast mode (and Exact mode on
/// an orthorhombic cell) is a pure SIMD loop (fractional wrap through the
/// 3x3 lattice matrices); Exact mode on a skewed cell falls back to the
/// scalar oracle per pair.  The loop vectorizes because the build drops
/// errno and trapping math (std::sqrt, and the selects of wrap_fraction).
template <typename T>
void compute_distance_row_soa(const Lattice& lattice, MinImageMode mode, T xi, T yi, T zi,
                              const T* MQC_RESTRICT sx, const T* MQC_RESTRICT sy,
                              const T* MQC_RESTRICT sz, int count, T* MQC_RESTRICT r,
                              T* MQC_RESTRICT dx, T* MQC_RESTRICT dy, T* MQC_RESTRICT dz)
{
  if (mode == MinImageMode::Exact && !lattice.is_orthorhombic()) {
    for (int j = 0; j < count; ++j) {
      const Vec3<double> d = lattice.min_image(
          Vec3<double>{static_cast<double>(xi - sx[j]), static_cast<double>(yi - sy[j]),
                       static_cast<double>(zi - sz[j])},
          MinImageMode::Exact);
      dx[j] = static_cast<T>(d.x);
      dy[j] = static_cast<T>(d.y);
      dz[j] = static_cast<T>(d.z);
      r[j] = static_cast<T>(norm(d));
    }
    return;
  }
  const auto& a = lattice.rows();
  const T a00 = static_cast<T>(a[0].x), a01 = static_cast<T>(a[0].y), a02 = static_cast<T>(a[0].z);
  const T a10 = static_cast<T>(a[1].x), a11 = static_cast<T>(a[1].y), a12 = static_cast<T>(a[1].z);
  const T a20 = static_cast<T>(a[2].x), a21 = static_cast<T>(a[2].y), a22 = static_cast<T>(a[2].z);
  // Reciprocal rows (f_i = b_i . r) reconstructed from the lattice.
  const Lattice& L = lattice;
  const Vec3<double> b0 = L.to_fractional(Vec3<double>{1, 0, 0});
  const Vec3<double> b1 = L.to_fractional(Vec3<double>{0, 1, 0});
  const Vec3<double> b2 = L.to_fractional(Vec3<double>{0, 0, 1});
  const T b00 = static_cast<T>(b0.x), b01 = static_cast<T>(b1.x), b02 = static_cast<T>(b2.x);
  const T b10 = static_cast<T>(b0.y), b11 = static_cast<T>(b1.y), b12 = static_cast<T>(b2.y);
  const T b20 = static_cast<T>(b0.z), b21 = static_cast<T>(b1.z), b22 = static_cast<T>(b2.z);
  MQC_SIMD
  for (int j = 0; j < count; ++j) {
    const T ux = xi - sx[j];
    const T uy = yi - sy[j];
    const T uz = zi - sz[j];
    T fx = b00 * ux + b01 * uy + b02 * uz;
    T fy = b10 * ux + b11 * uy + b12 * uz;
    T fz = b20 * ux + b21 * uy + b22 * uz;
    fx = wrap_fraction(fx);
    fy = wrap_fraction(fy);
    fz = wrap_fraction(fz);
    const T cx = fx * a00 + fy * a10 + fz * a20;
    const T cy = fx * a01 + fy * a11 + fz * a21;
    const T cz = fx * a02 + fy * a12 + fz * a22;
    dx[j] = cx;
    dy[j] = cy;
    dz[j] = cz;
    r[j] = std::sqrt(cx * cx + cy * cy + cz * cz);
  }
}

template <typename T>
class DistanceTableAA_SoA
{
public:
  DistanceTableAA_SoA(const Lattice& lattice, int n, MinImageMode mode = MinImageMode::Exact)
      : lattice_(&lattice), mode_(mode), n_(n), stride_(aligned_size<T>(static_cast<std::size_t>(n))),
        x_(stride_), y_(stride_), z_(stride_), temp_r_(stride_), temp_dx_(stride_),
        temp_dy_(stride_), temp_dz_(stride_), old_r_(stride_)
  {
  }

  [[nodiscard]] int size() const noexcept { return n_; }
  [[nodiscard]] std::size_t row_stride() const noexcept { return stride_; }

  /// Take the positions every row is computed from.
  void evaluate(const ParticleSetSoA<T>& p)
  {
    assert(p.size() == n_);
    std::copy_n(p.x(), n_, x_.data());
    std::copy_n(p.y(), n_, y_.data());
    std::copy_n(p.z(), n_, z_.data());
  }

  /// Rows for a proposed move of electron @p iel to @p rnew: the proposal's
  /// (temp_*) and the distances of the mover's current one (old_r).  Both
  /// come from the table's copy of the positions of @p p, which evaluate()
  /// took and accept_move() keeps current.  The current row is computed
  /// first, so the proposal's displacements overwrite its own.
  void compute_temp([[maybe_unused]] const ParticleSetSoA<T>& p, const Vec3<T>& rnew, int iel)
  {
    assert(p.size() == n_);
    row_from(position(iel), iel, old_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data());
    row_from(rnew, iel, temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data());
    rnew_ = rnew;
    iel_ = iel;
  }

  /// Commit the position compute_temp priced.
  void accept_move(int iel)
  {
    assert(iel == iel_);
    const auto u = static_cast<std::size_t>(iel);
    x_[u] = rnew_.x;
    y_[u] = rnew_.y;
    z_[u] = rnew_.z;
  }

  /// Row @p i from the positions: r[j] = |d[j]|, d[j] = min_image(r_i - r_j)
  /// in components, the self entry the sentinel.  Each buffer holds size()
  /// entries.
  void compute_row(int i, T* r, T* dx, T* dy, T* dz) const
  {
    row_from(position(i), i, r, dx, dy, dz);
  }

  [[nodiscard]] const T* temp_r() const noexcept { return temp_r_.data(); }
  [[nodiscard]] const T* temp_dx() const noexcept { return temp_dx_.data(); }
  [[nodiscard]] const T* temp_dy() const noexcept { return temp_dy_.data(); }
  [[nodiscard]] const T* temp_dz() const noexcept { return temp_dz_.data(); }
  [[nodiscard]] const T* old_r() const noexcept { return old_r_.data(); }

private:
  [[nodiscard]] Vec3<T> position(int i) const noexcept
  {
    const auto u = static_cast<std::size_t>(i);
    return Vec3<T>{x_[u], y_[u], z_[u]};
  }

  void row_from(const Vec3<T>& ri, int i, T* r, T* dx, T* dy, T* dz) const
  {
    compute_distance_row_soa(*lattice_, mode_, ri.x, ri.y, ri.z, x_.data(), y_.data(), z_.data(),
                             n_, r, dx, dy, dz);
    r[i] = kSelfDistance<T>;
    dx[i] = dy[i] = dz[i] = T(0);
  }

  const Lattice* lattice_;
  MinImageMode mode_;
  int n_;
  std::size_t stride_;
  aligned_vector<T> x_, y_, z_;
  aligned_vector<T> temp_r_, temp_dx_, temp_dy_, temp_dz_;
  aligned_vector<T> old_r_;
  Vec3<T> rnew_{};
  int iel_ = -1;
};

template <typename T>
class DistanceTableAB_SoA
{
public:
  DistanceTableAB_SoA(const Lattice& lattice, const ParticleSetSoA<T>& sources, int num_targets,
                      MinImageMode mode = MinImageMode::Exact)
      : lattice_(&lattice), mode_(mode), sources_(&sources), nt_(num_targets),
        ns_(sources.size()), stride_(aligned_size<T>(static_cast<std::size_t>(ns_))),
        r_(static_cast<std::size_t>(nt_) * stride_), dx_(r_.size()), dy_(r_.size()),
        dz_(r_.size()), temp_r_(stride_), temp_dx_(stride_), temp_dy_(stride_), temp_dz_(stride_)
  {
  }

  [[nodiscard]] int num_targets() const noexcept { return nt_; }
  [[nodiscard]] int num_sources() const noexcept { return ns_; }
  [[nodiscard]] std::size_t row_stride() const noexcept { return stride_; }

  void evaluate(const ParticleSetSoA<T>& targets)
  {
    for (int i = 0; i < nt_; ++i) {
      const Vec3<T> ri = targets[i];
      update_row(ri, i);
    }
  }

  void update_row(const Vec3<T>& ri, int i)
  {
    compute_distance_row_soa(*lattice_, mode_, ri.x, ri.y, ri.z, sources_->x(), sources_->y(),
                             sources_->z(), ns_, row(r_, i), row(dx_, i), row(dy_, i),
                             row(dz_, i));
  }

  void compute_temp(const Vec3<T>& rnew)
  {
    compute_distance_row_soa(*lattice_, mode_, rnew.x, rnew.y, rnew.z, sources_->x(),
                             sources_->y(), sources_->z(), ns_, temp_r_.data(), temp_dx_.data(),
                             temp_dy_.data(), temp_dz_.data());
  }

  void accept_move(int iel)
  {
    for (int j = 0; j < ns_; ++j) {
      row(r_, iel)[j] = temp_r_[static_cast<std::size_t>(j)];
      row(dx_, iel)[j] = temp_dx_[static_cast<std::size_t>(j)];
      row(dy_, iel)[j] = temp_dy_[static_cast<std::size_t>(j)];
      row(dz_, iel)[j] = temp_dz_[static_cast<std::size_t>(j)];
    }
  }

  [[nodiscard]] const T* dist_row(int i) const noexcept { return row_c(r_, i); }
  [[nodiscard]] const T* dx_row(int i) const noexcept { return row_c(dx_, i); }
  [[nodiscard]] const T* dy_row(int i) const noexcept { return row_c(dy_, i); }
  [[nodiscard]] const T* dz_row(int i) const noexcept { return row_c(dz_, i); }
  [[nodiscard]] const T* temp_r() const noexcept { return temp_r_.data(); }
  [[nodiscard]] const T* temp_dx() const noexcept { return temp_dx_.data(); }
  [[nodiscard]] const T* temp_dy() const noexcept { return temp_dy_.data(); }
  [[nodiscard]] const T* temp_dz() const noexcept { return temp_dz_.data(); }

private:
  T* row(aligned_vector<T>& v, int i) noexcept
  {
    return v.data() + static_cast<std::size_t>(i) * stride_;
  }
  const T* row_c(const aligned_vector<T>& v, int i) const noexcept
  {
    return v.data() + static_cast<std::size_t>(i) * stride_;
  }

  const Lattice* lattice_;
  MinImageMode mode_;
  const ParticleSetSoA<T>* sources_;
  int nt_, ns_;
  std::size_t stride_;
  aligned_vector<T> r_, dx_, dy_, dz_;
  aligned_vector<T> temp_r_, temp_dx_, temp_dy_, temp_dz_;
};

} // namespace mqc

#endif // MQC_DISTANCE_DISTANCE_TABLE_H
