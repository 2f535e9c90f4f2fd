// Particle position containers in both layouts (paper §V-A).
//
// ParticleSetAoS is the conventional R[N][3] abstraction — "logical for
// expressing concepts ... but the computations using them are not efficient
// on modern CPUs".  ParticleSetSoA keeps three separate aligned component
// streams and bridges back to the AoS world through operator[] returning a
// Vec3 by value — the paper's trick for converting QMCPACK incrementally
// ("overload their square bracket operators to return the particle positions
// at an index, in the current AoS format").
#ifndef MQC_PARTICLES_PARTICLE_SET_H
#define MQC_PARTICLES_PARTICLE_SET_H

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/aligned_allocator.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/vec3.h"
#include "particles/lattice.h"

namespace mqc {

template <typename T>
class ParticleSetAoS
{
public:
  ParticleSetAoS() = default;
  explicit ParticleSetAoS(int n) : r_(static_cast<std::size_t>(n)) {}

  [[nodiscard]] int size() const noexcept { return static_cast<int>(r_.size()); }
  [[nodiscard]] Vec3<T>& operator[](int i) noexcept { return r_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const Vec3<T>& operator[](int i) const noexcept
  {
    return r_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const Vec3<T>* data() const noexcept { return r_.data(); }

  void set(int i, const Vec3<T>& r) noexcept { r_[static_cast<std::size_t>(i)] = r; }

private:
  std::vector<Vec3<T>> r_;
};

template <typename T>
class ParticleSetSoA
{
public:
  ParticleSetSoA() = default;
  explicit ParticleSetSoA(int n)
      : n_(n), pad_(aligned_size<T>(static_cast<std::size_t>(n))), x_(pad_, T(0)), y_(pad_, T(0)),
        z_(pad_, T(0))
  {
  }

  [[nodiscard]] int size() const noexcept { return n_; }
  [[nodiscard]] std::size_t padded_size() const noexcept { return pad_; }

  /// AoS-style read access (the bridging operator; returns by value).
  [[nodiscard]] Vec3<T> operator[](int i) const noexcept
  {
    const auto u = static_cast<std::size_t>(i);
    return Vec3<T>{x_[u], y_[u], z_[u]};
  }

  void set(int i, const Vec3<T>& r) noexcept
  {
    const auto u = static_cast<std::size_t>(i);
    x_[u] = r.x;
    y_[u] = r.y;
    z_[u] = r.z;
  }

  [[nodiscard]] const T* x() const noexcept { return x_.data(); }
  [[nodiscard]] const T* y() const noexcept { return y_.data(); }
  [[nodiscard]] const T* z() const noexcept { return z_.data(); }

private:
  int n_ = 0;
  std::size_t pad_ = 0;
  aligned_vector<T> x_, y_, z_;
};

/// Layout conversions (used at module boundaries, never in hot loops).
template <typename T>
ParticleSetSoA<T> to_soa(const ParticleSetAoS<T>& aos)
{
  ParticleSetSoA<T> soa(aos.size());
  for (int i = 0; i < aos.size(); ++i)
    soa.set(i, aos[i]);
  return soa;
}

template <typename T>
ParticleSetAoS<T> to_aos(const ParticleSetSoA<T>& soa)
{
  ParticleSetAoS<T> aos(soa.size());
  for (int i = 0; i < soa.size(); ++i)
    aos[i] = soa[i];
  return aos;
}

/// Scatter @p n particles uniformly inside the lattice cell (deterministic).
template <typename T>
ParticleSetSoA<T> random_particles(int n, const Lattice& lattice, std::uint64_t seed)
{
  ParticleSetSoA<T> set(n);
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    const Vec3<double> f{rng.uniform(), rng.uniform(), rng.uniform()};
    const Vec3<double> r = lattice.to_cartesian(f);
    set.set(i, Vec3<T>{static_cast<T>(r.x), static_cast<T>(r.y), static_cast<T>(r.z)});
  }
  return set;
}

} // namespace mqc

#endif // MQC_PARTICLES_PARTICLE_SET_H
