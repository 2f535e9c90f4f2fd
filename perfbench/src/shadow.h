// Shadow of the miniQMC crowd sweep, driven through the public layer APIs
// (OrbitalSet, DistanceTableAA_SoA / DistanceTableAB_SoA, TwoBodyJastrowSoA /
// OneBodyJastrowSoA, DetUpdater) so the traced runs can put a span around
// every call into a layer.  It builds the same system as run_miniqmc for a
// graphite config and follows the crowd driver's per-electron order:
//
//   propose -> VGH batch -> per walker: distance temp rows -> Jastrow ratio ->
//   determinant ratio -> accept/commit;  then per step: VGL batch, quadrature
//   distance rows and one-body ratios, one V batch, full Jastrow.
//
// Because it draws from the same per-walker streams in the same order, its
// walkers end with the driver's accept counts and log determinants, which
// the traced runs check bit for bit.
#ifndef PERFBENCH_SHADOW_H
#define PERFBENCH_SHADOW_H

#include <memory>
#include <vector>

#include "bench.h"
#include "common/aligned_allocator.h"
#include "common/rng.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "determinant/det_update.h"
#include "distance/distance_table.h"
#include "jastrow/bspline_functor.h"
#include "jastrow/one_body.h"
#include "jastrow/two_body.h"
#include "particles/graphite.h"
#include "particles/particle_set.h"
#include "qmc/miniqmc_driver.h"

namespace perfbench {

/// The read-only system of a graphite config: crystal, coefficient table,
/// AoSoA engine behind an OrbitalSet, Jastrow functors and ions.
struct ShadowSystem
{
  explicit ShadowSystem(const mqc::MiniQMCConfig& cfg);
  ShadowSystem(const ShadowSystem&) = delete;
  ShadowSystem& operator=(const ShadowSystem&) = delete;

  mqc::MiniQMCConfig cfg;
  mqc::CrystalSystem crystal;
  int norb = 0;
  int nel = 0;
  int nq = 1;
  std::shared_ptr<mqc::CoefStorage<float>> coefs;
  std::unique_ptr<mqc::MultiBspline<float>> engine;
  mqc::OrbitalSet<float> spo;
  std::size_t stride = 0;
  mqc::BsplineJastrowFunctor<float> j2_functor, j1_functor;
  mqc::TwoBodyJastrowSoA<float> j2{j2_functor};
  mqc::OneBodyJastrowSoA<float> j1{j1_functor};
  mqc::ParticleSetSoA<float> ions;
};

/// One walker's state and buffers.
struct ShadowWalker
{
  mqc::ParticleSetSoA<float> elec;
  std::unique_ptr<mqc::DistanceTableAA_SoA<float>> ee;
  std::unique_ptr<mqc::DistanceTableAB_SoA<float>> ei;
  mqc::aligned_vector<float> v, g, h, l, quad_v;
  std::vector<mqc::Vec3<float>> quad_r;
  mqc::DetUpdater det_up, det_dn;
  mqc::Xoshiro256 rng;
  std::vector<double> phi;
  std::vector<mqc::Vec3<float>> jgrad;
  std::vector<float> jlap;
  std::size_t accepted = 0;
  std::size_t attempted = 0;
  bool build_ok = true;
};

/// Timings of one walker build, for the walker-construction metrics.
struct BuildTimes
{
  double distance_s = 0.0;    ///< both distance tables' full evaluate()
  double determinant_s = 0.0; ///< both DetUpdater::build() calls
};

/// Build walker @p wid exactly as the drivers do (rng stream, positions,
/// full distance tables, determinants from the initial orbitals).
BuildTimes build_walker(ShadowWalker& w, const ShadowSystem& sys, int wid, Tracer* tr);

/// Sweep walkers [first, first + count) in lock-step for @p steps steps,
/// recording one root span "qmc.sweep" per step with a child span around
/// every layer call.  A null tracer records nothing.
void shadow_sweep(const ShadowSystem& sys, std::vector<ShadowWalker>& walkers, int first, int count,
                  int steps, Tracer* tr);

} // namespace perfbench

#endif // PERFBENCH_SHADOW_H
