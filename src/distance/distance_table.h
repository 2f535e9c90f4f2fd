// Distance tables — the second-hottest kernel group in the paper's profile
// (Tables II/III: 23-39% of run time before optimization).
//
// Two table kinds, each in two layouts:
//   AA — electron-electron, square n x n, updated row+column on acceptance;
//   AB — ion-electron, sources fixed, one row per target electron.
//   AoS — Vec3 positions, scalar minimum image per pair (the baseline);
//   SoA — separate aligned x/y/z source streams, row-major padded distance
//         and displacement-component planes, SIMD inner loops (the Opt-A
//         treatment applied to the particle abstractions, §V-A).
//
// Self-distances in AA tables are set to a huge value so cutoff-based
// functors (Jastrow) skip them without a branch in the SIMD loop.
#ifndef MQC_DISTANCE_DISTANCE_TABLE_H
#define MQC_DISTANCE_DISTANCE_TABLE_H

#include <cassert>
#include <cmath>
#include <cstddef>

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
      : lattice_(&lattice), mode_(mode), n_(n), r_(static_cast<std::size_t>(n) * n),
        dr_(static_cast<std::size_t>(n) * n), temp_r_(static_cast<std::size_t>(n)),
        temp_dr_(static_cast<std::size_t>(n))
  {
  }

  [[nodiscard]] int size() const noexcept { return n_; }

  /// Full O(N^2) rebuild.
  void evaluate(const ParticleSetAoS<T>& p)
  {
    for (int i = 0; i < n_; ++i)
      for (int j = 0; j < n_; ++j)
        set_pair(i, j, p[i], p[j]);
  }

  /// Distances from a proposed position of electron @p iel to all others.
  void compute_temp(const ParticleSetAoS<T>& p, const Vec3<T>& rnew, int iel)
  {
    for (int j = 0; j < n_; ++j) {
      if (j == iel) {
        temp_r_[static_cast<std::size_t>(j)] = kSelfDistance<T>;
        temp_dr_[static_cast<std::size_t>(j)] = Vec3<T>{};
        continue;
      }
      const Vec3<double> d = lattice_->min_image(
          Vec3<double>{static_cast<double>(rnew.x - p[j].x), static_cast<double>(rnew.y - p[j].y),
                       static_cast<double>(rnew.z - p[j].z)},
          mode_);
      temp_dr_[static_cast<std::size_t>(j)] =
          Vec3<T>{static_cast<T>(d.x), static_cast<T>(d.y), static_cast<T>(d.z)};
      temp_r_[static_cast<std::size_t>(j)] = static_cast<T>(norm(d));
    }
  }

  /// Commit the temp row as row/column @p iel (displacements antisymmetric).
  void accept_move(int iel)
  {
    for (int j = 0; j < n_; ++j) {
      at_r(iel, j) = temp_r_[static_cast<std::size_t>(j)];
      at_dr(iel, j) = temp_dr_[static_cast<std::size_t>(j)];
      at_r(j, iel) = temp_r_[static_cast<std::size_t>(j)];
      at_dr(j, iel) = Vec3<T>{} - temp_dr_[static_cast<std::size_t>(j)];
    }
    at_r(iel, iel) = kSelfDistance<T>;
    at_dr(iel, iel) = Vec3<T>{};
  }

  [[nodiscard]] T dist(int i, int j) const noexcept
  {
    return r_[static_cast<std::size_t>(i) * n_ + j];
  }
  [[nodiscard]] const Vec3<T>& displ(int i, int j) const noexcept
  {
    return dr_[static_cast<std::size_t>(i) * n_ + j];
  }
  [[nodiscard]] const T* temp_r() const noexcept { return temp_r_.data(); }
  [[nodiscard]] const Vec3<T>* temp_dr() const noexcept { return temp_dr_.data(); }

  // checkpoint/restore access (qmc/checkpoint.cpp): the committed table
  // arrays verbatim.  Incremental accept_move entries are NOT guaranteed
  // bit-identical to a fresh evaluate() (antisymmetric column writes negate
  // instead of recomputing), so a resumed run must restore these bytes, not
  // rebuild from positions.  temp_* scratch is excluded: it is fully
  // overwritten by the next compute_temp before any read.
  [[nodiscard]] std::size_t state_count() const noexcept { return r_.size(); }
  [[nodiscard]] T* state_r() noexcept { return r_.data(); }
  [[nodiscard]] Vec3<T>* state_dr() noexcept { return dr_.data(); }

private:
  void set_pair(int i, int j, const Vec3<T>& ri, const Vec3<T>& rj)
  {
    if (i == j) {
      at_r(i, j) = kSelfDistance<T>;
      at_dr(i, j) = Vec3<T>{};
      return;
    }
    const Vec3<double> d = lattice_->min_image(
        Vec3<double>{static_cast<double>(ri.x - rj.x), static_cast<double>(ri.y - rj.y),
                     static_cast<double>(ri.z - rj.z)},
        mode_);
    at_dr(i, j) = Vec3<T>{static_cast<T>(d.x), static_cast<T>(d.y), static_cast<T>(d.z)};
    at_r(i, j) = static_cast<T>(norm(d));
  }

  T& at_r(int i, int j) noexcept { return r_[static_cast<std::size_t>(i) * n_ + j]; }
  Vec3<T>& at_dr(int i, int j) noexcept { return dr_[static_cast<std::size_t>(i) * n_ + j]; }

  const Lattice* lattice_;
  MinImageMode mode_;
  int n_;
  std::vector<T> r_;
  std::vector<Vec3<T>> dr_; ///< dr(i,j) = min_image(r_i - r_j)
  std::vector<T> temp_r_;
  std::vector<Vec3<T>> temp_dr_;
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

  // checkpoint/restore access (see DistanceTableAA_AoS::state_count).
  [[nodiscard]] std::size_t state_count() const noexcept { return r_.size(); }
  [[nodiscard]] T* state_r() noexcept { return r_.data(); }
  [[nodiscard]] Vec3<T>* state_dr() noexcept { return dr_.data(); }

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

/// Shared SIMD row kernel: distances/displacements from one target position
/// to all sources given as component streams.  Fast mode (and Exact mode on
/// an orthorhombic cell) is a pure SIMD loop (fractional wrap through the
/// 3x3 lattice matrices); Exact mode on a skewed cell falls back to the
/// scalar oracle per pair.  The loop vectorizes because the build drops
/// errno and trapping math (std::sqrt, std::floor); on x86-64 the vector
/// floor needs SSE4.1 (tools/check_vectorization.py, `no-vector-floor`).
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
    fx -= std::floor(fx + T(0.5));
    fy -= std::floor(fy + T(0.5));
    fz -= std::floor(fz + T(0.5));
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
        r_(static_cast<std::size_t>(n) * stride_), dx_(r_.size()), dy_(r_.size()), dz_(r_.size()),
        temp_r_(stride_), temp_dx_(stride_), temp_dy_(stride_), temp_dz_(stride_)
  {
  }

  [[nodiscard]] int size() const noexcept { return n_; }
  [[nodiscard]] std::size_t row_stride() const noexcept { return stride_; }

  void evaluate(const ParticleSetSoA<T>& p)
  {
    for (int i = 0; i < n_; ++i) {
      const Vec3<T> ri = p[i];
      compute_distance_row_soa(*lattice_, mode_, ri.x, ri.y, ri.z, p.x(), p.y(), p.z(), n_,
                               row_r(i), row_dx(i), row_dy(i), row_dz(i));
      row_r(i)[i] = kSelfDistance<T>;
      row_dx(i)[i] = row_dy(i)[i] = row_dz(i)[i] = T(0);
    }
  }

  void compute_temp(const ParticleSetSoA<T>& p, const Vec3<T>& rnew, int iel)
  {
    compute_distance_row_soa(*lattice_, mode_, rnew.x, rnew.y, rnew.z, p.x(), p.y(), p.z(), n_,
                             temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data());
    temp_r_[static_cast<std::size_t>(iel)] = kSelfDistance<T>;
    temp_dx_[static_cast<std::size_t>(iel)] = T(0);
    temp_dy_[static_cast<std::size_t>(iel)] = T(0);
    temp_dz_[static_cast<std::size_t>(iel)] = T(0);
  }

  void accept_move(int iel)
  {
    for (int j = 0; j < n_; ++j) {
      row_r(iel)[j] = temp_r_[static_cast<std::size_t>(j)];
      row_dx(iel)[j] = temp_dx_[static_cast<std::size_t>(j)];
      row_dy(iel)[j] = temp_dy_[static_cast<std::size_t>(j)];
      row_dz(iel)[j] = temp_dz_[static_cast<std::size_t>(j)];
      row_r(j)[iel] = temp_r_[static_cast<std::size_t>(j)];
      row_dx(j)[iel] = -temp_dx_[static_cast<std::size_t>(j)];
      row_dy(j)[iel] = -temp_dy_[static_cast<std::size_t>(j)];
      row_dz(j)[iel] = -temp_dz_[static_cast<std::size_t>(j)];
    }
    row_r(iel)[iel] = kSelfDistance<T>;
    row_dx(iel)[iel] = row_dy(iel)[iel] = row_dz(iel)[iel] = T(0);
  }

  [[nodiscard]] const T* dist_row(int i) const noexcept { return row_r_c(i); }
  [[nodiscard]] const T* dx_row(int i) const noexcept { return row_c(dx_, i); }
  [[nodiscard]] const T* dy_row(int i) const noexcept { return row_c(dy_, i); }
  [[nodiscard]] const T* dz_row(int i) const noexcept { return row_c(dz_, i); }
  [[nodiscard]] const T* temp_r() const noexcept { return temp_r_.data(); }
  [[nodiscard]] const T* temp_dx() const noexcept { return temp_dx_.data(); }
  [[nodiscard]] const T* temp_dy() const noexcept { return temp_dy_.data(); }
  [[nodiscard]] const T* temp_dz() const noexcept { return temp_dz_.data(); }

  // checkpoint/restore access (see DistanceTableAA_AoS::state_count).  The
  // padded tail lanes are serialized too — verbatim bytes in, verbatim out.
  [[nodiscard]] std::size_t state_count() const noexcept { return r_.size(); }
  [[nodiscard]] T* state_r() noexcept { return r_.data(); }
  [[nodiscard]] T* state_dx() noexcept { return dx_.data(); }
  [[nodiscard]] T* state_dy() noexcept { return dy_.data(); }
  [[nodiscard]] T* state_dz() noexcept { return dz_.data(); }

private:
  T* row_r(int i) noexcept { return r_.data() + static_cast<std::size_t>(i) * stride_; }
  T* row_dx(int i) noexcept { return dx_.data() + static_cast<std::size_t>(i) * stride_; }
  T* row_dy(int i) noexcept { return dy_.data() + static_cast<std::size_t>(i) * stride_; }
  T* row_dz(int i) noexcept { return dz_.data() + static_cast<std::size_t>(i) * stride_; }
  const T* row_r_c(int i) const noexcept { return r_.data() + static_cast<std::size_t>(i) * stride_; }
  const T* row_c(const aligned_vector<T>& v, int i) const noexcept
  {
    return v.data() + static_cast<std::size_t>(i) * stride_;
  }

  const Lattice* lattice_;
  MinImageMode mode_;
  int n_;
  std::size_t stride_;
  aligned_vector<T> r_, dx_, dy_, dz_;
  aligned_vector<T> temp_r_, temp_dx_, temp_dy_, temp_dz_;
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

  // checkpoint/restore access (see DistanceTableAA_AoS::state_count).
  [[nodiscard]] std::size_t state_count() const noexcept { return r_.size(); }
  [[nodiscard]] T* state_r() noexcept { return r_.data(); }
  [[nodiscard]] T* state_dx() noexcept { return dx_.data(); }
  [[nodiscard]] T* state_dy() noexcept { return dy_.data(); }
  [[nodiscard]] T* state_dz() noexcept { return dz_.data(); }

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
