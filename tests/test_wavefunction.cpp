// Integration tests for the Slater-Jastrow wave function (paper Eq. 1-4):
// the particle-by-particle ratio/accept protocol against full rebuilds,
// sign tracking, reject semantics, and the kinetic-energy estimator against
// finite differences of log psi.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/synthetic_orbitals.h"
#include "particles/graphite.h"
#include "qmc/wavefunction.h"

using namespace mqc;

namespace {

struct WfFixture
{
  CrystalSystem sys = make_orthorhombic_carbon(1, 1, 1); // 4 ions
  std::shared_ptr<CoefStorage<double>> coefs;
  ParticleSetSoA<double> ions;
  ParticleSetSoA<double> elec;
  std::unique_ptr<SlaterJastrow<double>> psi;
  int norb = 6;

  explicit WfFixture(std::uint64_t seed = 3)
  {
    const double l = sys.lattice.rows()[0].x;
    const auto grid = Grid3D<double>::cube(12, l);
    const auto pw = PlaneWaveOrbitals::make(norb, Vec3<double>{l, l, l}, seed);
    coefs = build_planewave_storage(grid, pw);
    ions = ParticleSetSoA<double>(sys.num_ions());
    for (int i = 0; i < sys.num_ions(); ++i)
      ions.set(i, sys.ions[i]);
    const double rcut = 0.9 * sys.lattice.wigner_seitz_radius();
    auto j1 = BsplineJastrowFunctor<double>::make_exponential(-1.0, 0.8, rcut);
    auto j2 = BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, rcut);
    psi = std::make_unique<SlaterJastrow<double>>(coefs, sys.lattice, ions, j1, j2,
                                                  MinImageMode::Fast);
    elec = random_particles<double>(2 * norb, sys.lattice, seed + 7);
    EXPECT_TRUE(psi->initialize(elec));
  }

  /// log |psi| of an arbitrary configuration via a fresh wave function.
  double log_psi_at(const ParticleSetSoA<double>& conf)
  {
    const double rcut = 0.9 * sys.lattice.wigner_seitz_radius();
    auto j1 = BsplineJastrowFunctor<double>::make_exponential(-1.0, 0.8, rcut);
    auto j2 = BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, rcut);
    SlaterJastrow<double> fresh(coefs, sys.lattice, ions, j1, j2);
    EXPECT_TRUE(fresh.initialize(conf));
    return fresh.log_psi();
  }
};

} // namespace

TEST(WaveFunction, InitializeGivesFiniteLog)
{
  WfFixture f;
  EXPECT_TRUE(std::isfinite(f.psi->log_psi()));
  EXPECT_NE(f.psi->sign(), 0.0);
  EXPECT_EQ(f.psi->num_orbitals(), 6);
  EXPECT_EQ(f.psi->num_electrons(), 12);
}

TEST(WaveFunction, RatioMatchesRebuild)
{
  WfFixture f;
  const double log_before = f.psi->log_psi();
  for (int iel : {0, 3, 7, 11}) {
    const Vec3<double> rnew{0.3 + 0.1 * iel, 1.1, 2.0 - 0.05 * iel};
    const double lr = f.psi->ratio_log(iel, rnew);
    f.psi->accept(iel);

    auto conf = f.elec;
    conf.set(iel, rnew);
    const double log_rebuilt = f.log_psi_at(conf);
    EXPECT_NEAR(f.psi->log_psi(), log_rebuilt, 1e-8) << "iel=" << iel;
    EXPECT_NEAR(f.psi->log_psi(), log_before + lr, 1e-8);

    // Undo for the next subcase (move back; ratio must invert).
    const double lr_back = f.psi->ratio_log(iel, f.elec[iel]);
    EXPECT_NEAR(lr_back, -lr, 1e-8);
    f.psi->accept(iel);
    EXPECT_NEAR(f.psi->log_psi(), log_before, 1e-7);
  }
}

TEST(WaveFunction, RejectLeavesStateUnchanged)
{
  WfFixture f;
  const double log_before = f.psi->log_psi();
  (void)f.psi->ratio_log(5, Vec3<double>{1.0, 1.0, 1.0});
  f.psi->reject(5);
  EXPECT_DOUBLE_EQ(f.psi->log_psi(), log_before);
  // A subsequent move of a different electron still behaves correctly.
  const double lr = f.psi->ratio_log(2, Vec3<double>{0.8, 0.2, 1.4});
  f.psi->accept(2);
  auto conf = f.elec;
  conf.set(2, Vec3<double>{0.8, 0.2, 1.4});
  EXPECT_NEAR(f.psi->log_psi(), f.log_psi_at(conf), 1e-8);
  EXPECT_NEAR(f.psi->log_psi(), log_before + lr, 1e-8);
}

TEST(WaveFunction, ManyMovesStayConsistent)
{
  WfFixture f;
  Xoshiro256 rng(99);
  auto conf = f.elec;
  for (int m = 0; m < 30; ++m) {
    const int iel = static_cast<int>(rng() % 12);
    const Vec3<double> r = conf[iel];
    const Vec3<double> rnew{r.x + 0.3 * rng.gaussian(), r.y + 0.3 * rng.gaussian(),
                            r.z + 0.3 * rng.gaussian()};
    (void)f.psi->ratio_log(iel, rnew);
    if (rng.uniform() < 0.6) {
      f.psi->accept(iel);
      conf.set(iel, rnew);
    } else {
      f.psi->reject(iel);
    }
  }
  EXPECT_NEAR(f.psi->log_psi(), f.log_psi_at(conf), 1e-7);
}

TEST(WaveFunction, GradLogPsiMatchesFiniteDifference)
{
  WfFixture f;
  std::vector<Vec3<double>> grad;
  std::vector<double> lap;
  f.psi->grad_lap_log_psi(grad, lap);

  const double h = 1e-5;
  for (int iel : {1, 8}) {
    const Vec3<double> r = f.elec[iel];
    for (int d = 0; d < 3; ++d) {
      auto cp = f.elec;
      Vec3<double> rp = r, rm = r;
      rp[static_cast<std::size_t>(d)] += h;
      rm[static_cast<std::size_t>(d)] -= h;
      cp.set(iel, rp);
      const double lp = f.log_psi_at(cp);
      cp.set(iel, rm);
      const double lm = f.log_psi_at(cp);
      const double fd = (lp - lm) / (2 * h);
      EXPECT_NEAR(grad[static_cast<std::size_t>(iel)][static_cast<std::size_t>(d)], fd, 5e-5)
          << "iel=" << iel << " d=" << d;
    }
  }
}

TEST(WaveFunction, LaplacianLogPsiMatchesFiniteDifference)
{
  WfFixture f;
  std::vector<Vec3<double>> grad;
  std::vector<double> lap;
  f.psi->grad_lap_log_psi(grad, lap);

  const double h = 2e-4;
  const int iel = 4;
  const Vec3<double> r = f.elec[iel];
  const double l0 = f.log_psi_at(f.elec);
  double lap_fd = 0.0;
  for (int d = 0; d < 3; ++d) {
    auto cp = f.elec;
    Vec3<double> rp = r, rm = r;
    rp[static_cast<std::size_t>(d)] += h;
    rm[static_cast<std::size_t>(d)] -= h;
    cp.set(iel, rp);
    const double lp = f.log_psi_at(cp);
    cp.set(iel, rm);
    const double lm = f.log_psi_at(cp);
    lap_fd += (lp - 2 * l0 + lm) / (h * h);
  }
  EXPECT_NEAR(lap[static_cast<std::size_t>(iel)], lap_fd, 5e-3);
}

TEST(WaveFunction, KineticEnergyFiniteAndStableUnderMoves)
{
  WfFixture f;
  const double k0 = f.psi->kinetic_energy();
  EXPECT_TRUE(std::isfinite(k0));
  // Kinetic energy from the incrementally updated state matches a rebuild.
  (void)f.psi->ratio_log(0, Vec3<double>{0.9, 0.9, 0.9});
  f.psi->accept(0);
  auto conf = f.elec;
  conf.set(0, Vec3<double>{0.9, 0.9, 0.9});
  const double rcut = 0.9 * f.sys.lattice.wigner_seitz_radius();
  auto j1 = BsplineJastrowFunctor<double>::make_exponential(-1.0, 0.8, rcut);
  auto j2 = BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, rcut);
  SlaterJastrow<double> fresh(f.coefs, f.sys.lattice, f.ions, j1, j2);
  ASSERT_TRUE(fresh.initialize(conf));
  EXPECT_NEAR(f.psi->kinetic_energy(), fresh.kinetic_energy(), 1e-6);
}

TEST(WaveFunction, FloatKernelsTrackDoubleWaveFunction)
{
  // The SP build of the same wave function must agree on log psi to a few
  // units of float epsilon times the problem scale.
  const auto sys = make_orthorhombic_carbon(1, 1, 1);
  const double l = sys.lattice.rows()[0].x;
  const int norb = 4;
  const auto pw = PlaneWaveOrbitals::make(norb, Vec3<double>{l, l, l}, 21);
  auto coefs_d = build_planewave_storage(Grid3D<double>::cube(12, l), pw);
  auto coefs_f = build_planewave_storage(Grid3D<float>::cube(12, static_cast<float>(l)), pw);
  ParticleSetSoA<double> ions_d(sys.num_ions());
  ParticleSetSoA<float> ions_f(sys.num_ions());
  for (int i = 0; i < sys.num_ions(); ++i) {
    ions_d.set(i, sys.ions[i]);
    ions_f.set(i, Vec3<float>{static_cast<float>(sys.ions[i].x),
                              static_cast<float>(sys.ions[i].y),
                              static_cast<float>(sys.ions[i].z)});
  }
  const double rcut = 0.9 * sys.lattice.wigner_seitz_radius();
  SlaterJastrow<double> psi_d(coefs_d, sys.lattice, ions_d,
                              BsplineJastrowFunctor<double>::make_exponential(-1.0, 0.8, rcut),
                              BsplineJastrowFunctor<double>::make_exponential(-0.5, 1.0, rcut));
  SlaterJastrow<float> psi_f(
      coefs_f, sys.lattice, ions_f,
      BsplineJastrowFunctor<float>::make_exponential(-1.0f, 0.8f, static_cast<float>(rcut)),
      BsplineJastrowFunctor<float>::make_exponential(-0.5f, 1.0f, static_cast<float>(rcut)));
  const auto elec_d = random_particles<double>(2 * norb, sys.lattice, 5);
  ParticleSetSoA<float> elec_f(2 * norb);
  for (int i = 0; i < 2 * norb; ++i)
    elec_f.set(i, Vec3<float>{static_cast<float>(elec_d[i].x), static_cast<float>(elec_d[i].y),
                              static_cast<float>(elec_d[i].z)});
  ASSERT_TRUE(psi_d.initialize(elec_d));
  ASSERT_TRUE(psi_f.initialize(elec_f));
  EXPECT_NEAR(psi_f.log_psi(), psi_d.log_psi(), 5e-4 * std::abs(psi_d.log_psi()) + 5e-3);
}
