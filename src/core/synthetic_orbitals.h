// Synthetic single-particle orbitals with closed-form derivatives.
//
// The paper's evaluation keeps the grid at 48^3 while scaling N — orbitals of
// periodic images of a small unit cell.  As a stand-in for DFT-generated
// orbitals (which require a plane-wave DFT code and HDF5 inputs we do not
// have) we use plane-wave orbitals
//     phi_n(r) = cos(G_n . r + theta_n)
// with G_n = 2*pi*(k_n / L) running over integer k-vectors ordered by |k|^2 —
// the orbitals of a homogeneous electron gas in the same periodic cell.
// They exercise the identical code path (a dense 4D coefficient table with
// random access) and, unlike random coefficients, have analytic
// value/gradient/Hessian so accuracy tests can verify the whole pipeline
// (builder + engine) end to end.  The substitution changes what the table
// holds, not how it is read, so the kernel measurements are unaffected.
#ifndef MQC_CORE_SYNTHETIC_ORBITALS_H
#define MQC_CORE_SYNTHETIC_ORBITALS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "common/vec3.h"
#include "core/bspline_builder.h"
#include "core/coef_storage.h"
#include "core/multi_bspline.h"

namespace mqc {

/// A set of plane-wave orbitals over an orthorhombic cell [0,Lx)x[0,Ly)x[0,Lz).
class PlaneWaveOrbitals
{
public:
  /// Build @p num orbitals with deterministic phases derived from @p seed.
  static PlaneWaveOrbitals make(int num, Vec3<double> box, std::uint64_t seed = 7)
  {
    PlaneWaveOrbitals set;
    set.box_ = box;
    // Enumerate integer k-vectors by increasing |k|^2 (then lexicographic) —
    // the aufbau order of a free-electron gas.
    int kmax = 1;
    while ((2 * kmax + 1) * (2 * kmax + 1) * (2 * kmax + 1) < 2 * num + 1)
      ++kmax;
    struct K
    {
      int k2;
      int kx, ky, kz;
    };
    std::vector<K> ks;
    for (int kx = -kmax; kx <= kmax; ++kx)
      for (int ky = -kmax; ky <= kmax; ++ky)
        for (int kz = -kmax; kz <= kmax; ++kz)
          ks.push_back({kx * kx + ky * ky + kz * kz, kx, ky, kz});
    std::sort(ks.begin(), ks.end(), [](const K& a, const K& b) {
      if (a.k2 != b.k2)
        return a.k2 < b.k2;
      if (a.kx != b.kx)
        return a.kx < b.kx;
      if (a.ky != b.ky)
        return a.ky < b.ky;
      return a.kz < b.kz;
    });
    Xoshiro256 rng(seed);
    constexpr double two_pi = 6.283185307179586476925286766559;
    for (int n = 0; n < num; ++n) {
      const K& k = ks[static_cast<std::size_t>(n)];
      set.g_.push_back(Vec3<double>{two_pi * k.kx / box.x, two_pi * k.ky / box.y,
                                    two_pi * k.kz / box.z});
      set.theta_.push_back(rng.uniform(0.0, two_pi));
    }
    return set;
  }

  [[nodiscard]] int num_orbitals() const noexcept { return static_cast<int>(g_.size()); }
  [[nodiscard]] Vec3<double> box() const noexcept { return box_; }

  [[nodiscard]] double value(int n, Vec3<double> r) const noexcept
  {
    return std::cos(phase(n, r));
  }

  [[nodiscard]] Vec3<double> gradient(int n, Vec3<double> r) const noexcept
  {
    const double s = -std::sin(phase(n, r));
    const auto& G = g_[static_cast<std::size_t>(n)];
    return Vec3<double>{G.x * s, G.y * s, G.z * s};
  }

  /// Hessian is -G (x) G * cos(phase); returns the six unique components in
  /// the engine order xx, xy, xz, yy, yz, zz.
  void hessian(int n, Vec3<double> r, double h[6]) const noexcept
  {
    const double c = -std::cos(phase(n, r));
    const auto& G = g_[static_cast<std::size_t>(n)];
    h[0] = G.x * G.x * c;
    h[1] = G.x * G.y * c;
    h[2] = G.x * G.z * c;
    h[3] = G.y * G.y * c;
    h[4] = G.y * G.z * c;
    h[5] = G.z * G.z * c;
  }

  [[nodiscard]] double laplacian(int n, Vec3<double> r) const noexcept
  {
    const auto& G = g_[static_cast<std::size_t>(n)];
    return -norm2(G) * std::cos(phase(n, r));
  }

private:
  [[nodiscard]] double phase(int n, Vec3<double> r) const noexcept
  {
    return dot(g_[static_cast<std::size_t>(n)], r) + theta_[static_cast<std::size_t>(n)];
  }

  Vec3<double> box_{1, 1, 1};
  std::vector<Vec3<double>> g_;
  std::vector<double> theta_;
};

/// Sample @p orbitals on @p grid and solve for the spline coefficient table.
/// Parallel over orbitals on the caller's team (threading.h seam; the
/// default lets the runtime size the sweep — table construction is setup
/// code with no enclosing partition).  Each orbital's solve is independent,
/// so every team size builds the identical table.
template <typename T>
std::shared_ptr<CoefStorage<T>> build_planewave_storage(const Grid3D<T>& grid,
                                                        const PlaneWaveOrbitals& orbitals,
                                                        TeamHandle team = TeamHandle::whole_machine())
{
  auto storage = std::make_shared<CoefStorage<T>>(grid, orbitals.num_orbitals());
  const int nx = grid.x.num, ny = grid.y.num, nz = grid.z.num;
  team_for(team, orbitals.num_orbitals(), [&](int n) {
    std::vector<double> samples(static_cast<std::size_t>(nx) * ny * nz);
    for (int i = 0; i < nx; ++i)
      for (int j = 0; j < ny; ++j)
        for (int k = 0; k < nz; ++k) {
          const Vec3<double> r{grid.x.start + i * static_cast<double>(grid.x.delta),
                               grid.y.start + j * static_cast<double>(grid.y.delta),
                               grid.z.start + k * static_cast<double>(grid.z.delta)};
          samples[(static_cast<std::size_t>(i) * ny + j) * nz + k] = orbitals.value(n, r);
        }
    set_spline_from_samples(*storage, n, samples.data());
  });
  return storage;
}

/// Convenience: random-coefficient table (bench path; values are irrelevant
/// to kernel timing, see CoefStorage::fill_random).
template <typename T>
std::shared_ptr<CoefStorage<T>> make_random_storage(const Grid3D<T>& grid, int num_splines,
                                                    std::uint64_t seed)
{
  auto storage = std::make_shared<CoefStorage<T>>(grid, num_splines);
  storage->fill_random(seed);
  return storage;
}

/// The AoSoA tiles of make_random_storage(grid, num_splines, seed) split at
/// @p tile_size (tile_counts), filled straight from the generator in the
/// untiled draw order: byte for byte the tiles
/// MultiBspline(*make_random_storage(...), tile_size) copies out, without
/// the untiled table ever existing.  With num_splines <= tile_width the one
/// tile is the make_random_storage table itself.
template <typename T>
CoefTables<T> make_random_tiles(const Grid3D<T>& grid, int num_splines, int tile_size,
                                std::uint64_t seed)
{
  CoefTables<T> tiles;
  std::vector<CoefStorage<T>*> parts;
  for (const int count : tile_counts<T>(num_splines, tile_size)) {
    auto tile = std::make_shared<CoefStorage<T>>(grid, count);
    parts.push_back(tile.get());
    tiles.push_back(std::move(tile));
  }
  fill_random_split<T>(parts, seed);
  return tiles;
}

} // namespace mqc

#endif // MQC_CORE_SYNTHETIC_ORBITALS_H
