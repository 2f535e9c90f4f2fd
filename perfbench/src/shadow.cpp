// Shadow crowd sweep through the public layer APIs (see shadow.h).
#include "shadow.h"

#include <algorithm>
#include <cmath>

#include "core/synthetic_orbitals.h"
#include "determinant/matrix.h"

namespace perfbench {

using namespace mqc;

ShadowSystem::ShadowSystem(const MiniQMCConfig& c)
    : cfg(c), crystal(make_graphite_supercell(c.supercell[0], c.supercell[1], c.supercell[2]))
{
  norb = cfg.num_splines > 0 ? cfg.num_splines : crystal.num_orbitals();
  nel = 2 * norb;
  nq = std::max(1, cfg.quadrature_points);
  double lmax = 0.0;
  for (const auto& row : crystal.lattice.rows())
    lmax = std::max(lmax, std::abs(row.x) + std::abs(row.y) + std::abs(row.z));
  coefs = make_random_storage<float>(Grid3D<float>::cube(cfg.grid_size, static_cast<float>(lmax)),
                                     norb, cfg.seed);
  engine = std::make_unique<MultiBspline<float>>(*coefs, cfg.tile_size);
  spo = OrbitalSet<float>(*engine);
  stride = engine->padded_splines();
  const double rcut = std::min(crystal.lattice.wigner_seitz_radius(), 6.0);
  j2_functor = BsplineJastrowFunctor<float>::make_exponential(-0.5f, 1.0f, static_cast<float>(rcut));
  j1_functor = BsplineJastrowFunctor<float>::make_exponential(-1.0f, 0.75f, static_cast<float>(rcut));
  ions = ParticleSetSoA<float>(crystal.num_ions());
  for (int i = 0; i < crystal.num_ions(); ++i) {
    const auto r = crystal.ions[i];
    ions.set(i, Vec3<float>{static_cast<float>(r.x), static_cast<float>(r.y),
                            static_cast<float>(r.z)});
  }
}

namespace {

Vec3<float> propose(Xoshiro256& rng, const Vec3<float>& r, double sigma)
{
  return Vec3<float>{r.x + static_cast<float>(sigma * rng.gaussian()),
                     r.y + static_cast<float>(sigma * rng.gaussian()),
                     r.z + static_cast<float>(sigma * rng.gaussian())};
}

double elapsed_s(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

} // namespace

BuildTimes build_walker(ShadowWalker& w, const ShadowSystem& sys, int wid, Tracer* tr)
{
  const MiniQMCConfig& cfg = sys.cfg;
  const auto unit = static_cast<std::uint32_t>(wid);
  BuildTimes times;
  w.elec = random_particles<float>(sys.nel, sys.crystal.lattice,
                                   cfg.seed + 1000 + static_cast<std::uint64_t>(wid));
  w.ee = std::make_unique<DistanceTableAA_SoA<float>>(sys.crystal.lattice, sys.nel,
                                                      MinImageMode::Fast);
  w.ei = std::make_unique<DistanceTableAB_SoA<float>>(sys.crystal.lattice, sys.ions, sys.nel,
                                                      MinImageMode::Fast);
  w.v.assign(sys.stride, 0.0f);
  w.g.assign(3 * sys.stride, 0.0f);
  w.h.assign(6 * sys.stride, 0.0f);
  w.l.assign(sys.stride, 0.0f);
  w.quad_v.assign(static_cast<std::size_t>(sys.nq) * sys.stride, 0.0f);
  w.quad_r.resize(static_cast<std::size_t>(sys.nq));
  w.phi.resize(static_cast<std::size_t>(sys.norb));
  w.jgrad.resize(static_cast<std::size_t>(sys.nel));
  w.jlap.resize(static_cast<std::size_t>(sys.nel));
  w.det_up = DetUpdater(cfg.delay_rank);
  w.det_dn = DetUpdater(cfg.delay_rank);
  w.rng = Xoshiro256::for_stream(cfg.seed, static_cast<std::uint64_t>(wid));
  {
    ScopedSpan s(tr, "distance.evaluate", unit);
    const std::int64_t t0 = now_ns();
    w.ee->evaluate(w.elec);
    w.ei->evaluate(w.elec);
    times.distance_s = elapsed_s(t0);
  }
  Matrix<double> a_up(sys.norb), a_dn(sys.norb);
  {
    ScopedSpan s(tr, "walker_build.orbitals", unit);
    for (int half = 0; half < 2; ++half) {
      Matrix<double>& a = half == 0 ? a_up : a_dn;
      for (int e = 0; e < sys.norb; ++e) {
        sys.spo.evaluate_one(DerivLevel::V, w.elec[half * sys.norb + e], w.v.data(), nullptr,
                             nullptr, sys.stride);
        for (int n = 0; n < sys.norb; ++n)
          a(n, e) = static_cast<double>(w.v[static_cast<std::size_t>(n)]) + (n == e ? 1.0 : 0.0);
      }
    }
  }
  {
    ScopedSpan s(tr, "determinant.build", unit);
    const std::int64_t t0 = now_ns();
    const bool up = w.det_up.build(a_up);
    const bool dn = w.det_dn.build(a_dn);
    times.determinant_s = elapsed_s(t0);
    w.build_ok = up && dn;
  }
  return times;
}

void shadow_sweep(const ShadowSystem& sys, std::vector<ShadowWalker>& walkers, int first, int count,
                  int steps, Tracer* tr)
{
  const MiniQMCConfig& cfg = sys.cfg;
  const int nq = cfg.quadrature_points;
  std::vector<Vec3<float>> rnew(static_cast<std::size_t>(count));
  std::vector<Vec3<float>> quad_pos(static_cast<std::size_t>(count * sys.nq));
  std::vector<float*> v(static_cast<std::size_t>(count)), g(v.size()), h(v.size()), l(v.size());
  std::vector<float*> qv(static_cast<std::size_t>(count * sys.nq));
  for (int i = 0; i < count; ++i) {
    ShadowWalker& w = walkers[static_cast<std::size_t>(first + i)];
    const auto ui = static_cast<std::size_t>(i);
    v[ui] = w.v.data();
    g[ui] = w.g.data();
    h[ui] = w.h.data();
    l[ui] = w.l.data();
    for (int q = 0; q < sys.nq; ++q)
      qv[ui * static_cast<std::size_t>(sys.nq) + static_cast<std::size_t>(q)] =
          w.quad_v.data() + static_cast<std::size_t>(q) * sys.stride;
  }
  OrbitalResource<float> res;
  (void)res.weights_for(count * sys.nq);

  auto request = [&](DerivLevel d, const Vec3<float>* pos, int n, float* const* vs,
                     float* const* gs, float* const* lhs) {
    OrbitalEvalRequest<float> rq;
    rq.deriv = d;
    rq.positions = pos;
    rq.count = n;
    rq.v = vs;
    rq.g = gs;
    rq.lh = lhs;
    rq.stride = sys.stride;
    sys.spo.evaluate(rq, res);
  };

  for (int s = 0; s < steps; ++s) {
    const auto unit = static_cast<std::uint32_t>(first * 100000 + s);
    ScopedSpan step(tr, "qmc.sweep", unit);
    for (int e = 0; e < sys.nel; ++e) {
      for (int i = 0; i < count; ++i) {
        ShadowWalker& w = walkers[static_cast<std::size_t>(first + i)];
        ++w.attempted;
        rnew[static_cast<std::size_t>(i)] = propose(w.rng, w.elec[e], cfg.move_sigma);
      }
      {
        ScopedSpan sp(tr, "core.facade.vgh", unit);
        request(DerivLevel::VGH, rnew.data(), count, v.data(), g.data(), h.data());
      }
      for (int i = 0; i < count; ++i) {
        ShadowWalker& w = walkers[static_cast<std::size_t>(first + i)];
        const Vec3<float>& r = rnew[static_cast<std::size_t>(i)];
        {
          ScopedSpan sp(tr, "distance", unit);
          w.ee->compute_temp(w.elec, r, e);
          w.ei->compute_temp(r);
        }
        double log_jr;
        {
          ScopedSpan sp(tr, "jastrow", unit);
          log_jr = sys.j2.ratio_log(*w.ee, e) + sys.j1.ratio_log(*w.ei, e);
        }
        DetUpdater& det = e < sys.norb ? w.det_up : w.det_dn;
        const int col = e < sys.norb ? e : e - sys.norb;
        double det_ratio;
        {
          ScopedSpan sp(tr, "determinant", unit);
          for (int n = 0; n < sys.norb; ++n)
            w.phi[static_cast<std::size_t>(n)] =
                static_cast<double>(w.v[static_cast<std::size_t>(n)]) + (n == col ? 1.0 : 0.0);
          det_ratio = det.ratio(w.phi.data(), col);
        }
        const double p = std::exp(2.0 * log_jr) * det_ratio * det_ratio;
        if (w.rng.uniform() < p) {
          ++w.accepted;
          {
            ScopedSpan sp(tr, "distance", unit);
            w.ee->accept_move(e);
            w.ei->accept_move(e);
          }
          {
            ScopedSpan sp(tr, "determinant", unit);
            det.accept_move(w.phi.data(), col);
          }
          w.elec.set(e, r);
        }
      }
    }
    for (int e = 0; e < sys.nel; ++e) {
      for (int i = 0; i < count; ++i)
        rnew[static_cast<std::size_t>(i)] = walkers[static_cast<std::size_t>(first + i)].elec[e];
      {
        ScopedSpan sp(tr, "core.facade.vgl", unit);
        request(DerivLevel::VGL, rnew.data(), count, v.data(), g.data(), l.data());
      }
      for (int i = 0; i < count; ++i) {
        ShadowWalker& w = walkers[static_cast<std::size_t>(first + i)];
        const Vec3<float> re = w.elec[e];
        for (int q = 0; q < nq; ++q)
          w.quad_r[static_cast<std::size_t>(q)] = propose(w.rng, re, 0.5);
        for (int q = 0; q < nq; ++q) {
          {
            ScopedSpan sp(tr, "distance", unit);
            w.ei->compute_temp(w.quad_r[static_cast<std::size_t>(q)]);
          }
          {
            ScopedSpan sp(tr, "jastrow", unit);
            (void)sys.j1.ratio_log(*w.ei, e);
          }
        }
      }
      if (nq > 0) {
        for (int i = 0; i < count; ++i) {
          const ShadowWalker& w = walkers[static_cast<std::size_t>(first + i)];
          std::copy(w.quad_r.begin(), w.quad_r.begin() + nq,
                    quad_pos.begin() + static_cast<std::ptrdiff_t>(i) * nq);
        }
        ScopedSpan sp(tr, "core.facade.v", unit);
        request(DerivLevel::V, quad_pos.data(), count * nq, qv.data(), nullptr, nullptr);
      }
    }
    for (int i = 0; i < count; ++i) {
      ShadowWalker& w = walkers[static_cast<std::size_t>(first + i)];
      ScopedSpan sp(tr, "jastrow", unit);
      (void)sys.j2.evaluate_log(*w.ee, w.jgrad.data(), w.jlap.data());
      (void)sys.j1.evaluate_log(*w.ei, w.jgrad.data(), w.jlap.data());
    }
  }
}

} // namespace perfbench
