// Internal state shared by the miniQMC drivers.
//
// Every driver — VMC through a WalkerPopulation (per-walker = crowds of one),
// DMC, and the JobQueue workers — runs the identical Monte Carlo process
// through the one crowd sweep (crowd_sweep.h): same system setup, same
// per-walker rng streams, same distance-table/Jastrow/determinant
// arithmetic, same Metropolis decisions.  Everything per-walker lives here,
// so a trajectory is a function of (seed, walker id) alone and the tests
// can require bit-for-bit identical trajectories across crowd sizes,
// shards and drivers.
//
// This header is an implementation detail of the qmc/ translation units; it
// is not part of the public API surface.
#ifndef MQC_QMC_MINIQMC_CONTEXT_H
#define MQC_QMC_MINIQMC_CONTEXT_H

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/aligned_allocator.h"
#include "common/rng.h"
#include "common/threading.h"
#include "common/timer.h"
#include "common/vec3.h"
#include "core/bspline_aos.h"
#include "core/bspline_soa.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "core/weights.h"
#include "determinant/det_update.h"
#include "distance/distance_table.h"
#include "jastrow/one_body.h"
#include "jastrow/two_body.h"
#include "particles/graphite.h"
#include "qmc/checkpoint.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/miniqmc_tuner.h"

namespace mqc::detail {

using qmc_real = float; ///< kernel precision (the paper's miniQMC is all SP)

/// Everything shared read-only across walkers: the crystal, the coefficient
/// tables and engines, the Jastrow functors, and the ion set.
///
/// Tables: the system holds exactly the tables its configured engine reads
/// (`tables`), once.  SoA and AoS read one generated table.  AoSoA reads its
/// tiles, generated straight into the tiles in the untiled draw order
/// (make_random_tiles), so no untiled table is ever built; when N fits one
/// tile, that tile is the generated table.  Every table comes from the
/// huge-page table allocator (core/table_memory.h).
struct MiniQMCSystem
{
  /// @p replica (optional) is a pre-built set of tables this system adopts
  /// instead of generating its own — the WalkerPopulation's NUMA path: the
  /// system of every socket but socket 0 passes its CoefReplicaSet copy of
  /// socket 0's `tables` here, so the engines and the OrbitalSet facade
  /// built below resolve every evaluation through socket-local memory; the
  /// socket's shards share that system.  A replica must be an exact copy of
  /// the tables this config would generate (asserted on shape; MultiBspline
  /// rejects a set that is not its tile split); since they are a
  /// deterministic function of (grid, norb, tile width, seed), adopting a
  /// copy is trajectory-neutral bit-for-bit.
  ///
  /// @throws std::invalid_argument for cfg.delay_rank >= 2 (check_delay_rank).
  /// Every driver builds its first system on the calling thread before any
  /// team region, so the refusal surfaces to the caller.
  explicit MiniQMCSystem(const MiniQMCConfig& cfg, CoefTables<qmc_real> replica = {})
      : crystal(make_graphite_supercell(cfg.supercell[0], cfg.supercell[1], cfg.supercell[2]))
  {
    check_delay_rank(cfg.delay_rank);
    norb = cfg.num_splines > 0 ? cfg.num_splines : crystal.num_orbitals();
    nel = 2 * norb;
    nw = cfg.num_walkers > 0 ? cfg.num_walkers : max_threads();
    nq = std::max(1, cfg.quadrature_points);

    // Spline domain: a cube enclosing the cell.  The driver's orbitals are
    // synthetic (random coefficients), so only the access pattern matters;
    // the engines wrap positions periodically in grid coordinates.
    double lmax = 0.0;
    for (const auto& row : crystal.lattice.rows())
      lmax = std::max(lmax, std::abs(row.x) + std::abs(row.y) + std::abs(row.z));
    const auto grid = Grid3D<qmc_real>::cube(cfg.grid_size, static_cast<qmc_real>(lmax));

    // Precision resolution BEFORE wisdom consumption: the AoS baseline has
    // no mixed variant (it predates the SoA stream kernels the wide
    // accumulation tile is built on), so Mixed + AoS resolves to Native —
    // surfaced through MiniQMCResult::precision_path, never silent.  The
    // wisdom entry is only consumed when it was tuned for the same resolved
    // precision: a pos_block tuned against DP-table bandwidth is the wrong
    // knob for a half-size mixed table.
    precision = cfg.precision_path;
    if (precision == PrecisionPath::Mixed && cfg.spo == SpoLayout::AoS)
      precision = PrecisionPath::Native;

    // Tuned dispatch knobs from the wisdom entry tune_miniqmc recorded
    // (never trajectory-affecting: tile size regroups the same per-orbital
    // arithmetic, pos_block and crowd_size reorder independent sweeps):
    // the AoSoA tile size, the facade's position block, and the crowd size
    // the crowd driver resolves when cfg.crowd_size == -1.
    int tile_size = cfg.tile_size;
    std::optional<Wisdom::Entry> tuned;
    if (cfg.wisdom)
      tuned = cfg.wisdom->lookup(miniqmc_wisdom_key(norb, cfg.grid_size, nw));
    if (tuned && tuned->precision != (precision == PrecisionPath::Mixed ? 1 : 0))
      tuned.reset();
    if (tuned) {
      if (cfg.spo == SpoLayout::AoSoA && tuned->tile_size > 0)
        tile_size = tuned->tile_size;
      tuned_crowd_size = tuned->crowd_size;
      tuned_inner_threads = tuned->inner_threads;
    }

    // The tables, once the tile width is known.
    if (!replica.empty()) {
      for ([[maybe_unused]] const auto& t : replica)
        assert(t->grid().x.num == grid.x.num && t->grid().y.num == grid.y.num &&
               t->grid().z.num == grid.z.num);
      tables = std::move(replica);
    } else if (cfg.spo == SpoLayout::AoSoA) {
      tables = make_random_tiles<qmc_real>(grid, norb, tile_size, cfg.seed);
    } else {
      tables = {make_random_storage<qmc_real>(grid, norb, cfg.seed)};
    }

    // Engines: only the configured layout is exercised in the sweep.  The
    // OrbitalSet facade over the configured engine is THE evaluation entry
    // point for both drivers; the raw engine members stay for tests that
    // cross-check against direct kernel calls.  The mixed engines read the
    // SAME float tables (mixed changes how they are accumulated, not what
    // is stored — and a direct qmc_real build is bit-identical to a
    // convert_storage-narrowed DP build, since the synthetic builders fill
    // from double-valued sources).
    out_pad = tables.front()->padded_splines();
    switch (cfg.spo) {
    case SpoLayout::AoS:
      spo_aos = std::make_unique<BsplineAoS<qmc_real>>(tables.front());
      spo = OrbitalSet<qmc_real>(*spo_aos);
      break;
    case SpoLayout::SoA:
      if (precision == PrecisionPath::Mixed) {
        spo_soa_mixed = std::make_unique<BsplineSoA<qmc_real, double>>(tables.front());
        spo = OrbitalSet<qmc_real>(*spo_soa_mixed);
      } else {
        spo_soa = std::make_unique<BsplineSoA<qmc_real>>(tables.front());
        spo = OrbitalSet<qmc_real>(*spo_soa);
      }
      break;
    case SpoLayout::AoSoA:
      if (precision == PrecisionPath::Mixed) {
        spo_aosoa_mixed = std::make_unique<MultiBspline<qmc_real, double>>(tables, tile_size);
        out_pad = spo_aosoa_mixed->padded_splines();
        spo = OrbitalSet<qmc_real>(*spo_aosoa_mixed);
      } else {
        spo_aosoa = std::make_unique<MultiBspline<qmc_real>>(tables, tile_size);
        out_pad = spo_aosoa->padded_splines();
        spo = OrbitalSet<qmc_real>(*spo_aosoa);
      }
      break;
    }
    assert(spo.capabilities().num_splines == norb);
    if (tuned)
      spo.set_pos_block(tuned->pos_block);

    // Shared Jastrow functors: e-e with the antiparallel cusp, e-ion smooth.
    const double rcut = std::min(crystal.lattice.wigner_seitz_radius(), 6.0);
    j2_functor = BsplineJastrowFunctor<qmc_real>::make_exponential(qmc_real(-0.5), qmc_real(1.0),
                                                                   static_cast<qmc_real>(rcut));
    j1_functor = BsplineJastrowFunctor<qmc_real>::make_exponential(qmc_real(-1.0), qmc_real(0.75),
                                                                   static_cast<qmc_real>(rcut));

    ParticleSetSoA<qmc_real> ion_set(crystal.num_ions());
    for (int i = 0; i < crystal.num_ions(); ++i) {
      const auto r = crystal.ions[i];
      ion_set.set(i, Vec3<qmc_real>{static_cast<qmc_real>(r.x), static_cast<qmc_real>(r.y),
                                    static_cast<qmc_real>(r.z)});
    }
    if (cfg.optimized_dt_jastrow)
      ions = std::move(ion_set);
    else
      ions = to_aos(ion_set);
  }

  MiniQMCSystem(const MiniQMCSystem&) = delete;
  MiniQMCSystem& operator=(const MiniQMCSystem&) = delete;

  CrystalSystem crystal;
  int norb = 0;
  int nel = 0;
  int nw = 0; ///< walker count
  int nq = 1; ///< pseudopotential quadrature points per electron
  /// The tables the configured engine reads, and no others (see above);
  /// what a socket's replica copies.
  CoefTables<qmc_real> tables;
  std::unique_ptr<BsplineAoS<qmc_real>> spo_aos;
  std::unique_ptr<BsplineSoA<qmc_real>> spo_soa;
  std::unique_ptr<MultiBspline<qmc_real>> spo_aosoa;
  /// Mixed-precision engines (float tables, double accumulation); built —
  /// over the same shared table — only when the resolved precision is Mixed.
  std::unique_ptr<BsplineSoA<qmc_real, double>> spo_soa_mixed;
  std::unique_ptr<MultiBspline<qmc_real, double>> spo_aosoa_mixed;
  OrbitalSet<qmc_real> spo;  ///< the one evaluation seam both drivers use
  /// The precision family the engines actually run (cfg.precision_path
  /// after the AoS resolution) — surfaced as MiniQMCResult::precision_path
  /// and mixed into the checkpoint config hash.
  PrecisionPath precision = PrecisionPath::Native;
  int tuned_crowd_size = 0;  ///< from cfg.wisdom (0 = none; see crowd driver)
  int tuned_inner_threads = 0; ///< from cfg.wisdom (0 = none; see drivers)
  std::size_t out_pad = 0;
  // The walkers' e-ion tables point at `ions` and their Jastrow evaluators
  // at the functors; the deleted copy/move keep those pointers valid for
  // the system's lifetime.
  BsplineJastrowFunctor<qmc_real> j2_functor, j1_functor;
  /// The ion positions, in the layout cfg.optimized_dt_jastrow selects.
  std::variant<ParticleSetAoS<qmc_real>, ParticleSetSoA<qmc_real>> ions;
};

/// One walker's electrons in one layout (paper §V-A): the positions and the
/// e-e and e-ion distance tables over them.  ElectronsAoS is the baseline,
/// ElectronsSoA the optimized layout; cfg.optimized_dt_jastrow picks one per
/// run, and the per-walker steps below are written once over either.  Both
/// use the fast minimum image, the same approximation on each side, so the
/// Table II/III comparison measures the layout alone.
template <typename ParticleSet, typename TableAA, typename TableAB, typename TwoBody,
          typename OneBody>
struct Electrons
{
  Electrons() = default;
  explicit Electrons(const MiniQMCSystem& sys)
      : r(sys.nel),
        ee(std::make_unique<TableAA>(sys.crystal.lattice, sys.nel, MinImageMode::Fast)),
        ei(std::make_unique<TableAB>(sys.crystal.lattice, std::get<ParticleSet>(sys.ions),
                                     sys.nel, MinImageMode::Fast))
  {
  }

  /// The Jastrow evaluators over these tables: stateless views of the
  /// system's functors.
  [[nodiscard]] TwoBody j2(const MiniQMCSystem& sys) const { return TwoBody(sys.j2_functor); }
  [[nodiscard]] OneBody j1(const MiniQMCSystem& sys) const { return OneBody(sys.j1_functor); }

  ParticleSet r;
  std::unique_ptr<TableAA> ee;
  std::unique_ptr<TableAB> ei;
};

using ElectronsAoS = Electrons<ParticleSetAoS<qmc_real>, DistanceTableAA_AoS<qmc_real>,
                               DistanceTableAB_AoS<qmc_real>, TwoBodyJastrowAoS<qmc_real>,
                               OneBodyJastrowAoS<qmc_real>>;
using ElectronsSoA = Electrons<ParticleSetSoA<qmc_real>, DistanceTableAA_SoA<qmc_real>,
                               DistanceTableAB_SoA<qmc_real>, TwoBodyJastrowSoA<qmc_real>,
                               OneBodyJastrowSoA<qmc_real>>;

/// One walker's orbital outputs, in the shape its engine writes: the AoS
/// baseline's interleaved groups (as WalkerAoS: G[N][3], H[N][3][3]) or the
/// component streams of stride out_pad every other engine writes (as
/// WalkerSoA).  The drift reads gradients back through g_comp and g_orb.
struct OrbitalOutputs
{
  OrbitalOutputs() = default;
  OrbitalOutputs(std::size_t pad, bool aos)
      : v(pad), g(3 * pad), l(pad), h((aos ? 9 : 6) * pad), g_comp(aos ? 1 : pad),
        g_orb(aos ? 3 : 1)
  {
  }

  aligned_vector<qmc_real> v, g, l, h;
  std::size_t g_comp = 0; ///< offset between the x, y, z gradients of one orbital
  std::size_t g_orb = 0;  ///< offset between the gradients of consecutive orbitals
};

/// Everything one walker owns.  The coefficient table and functors are
/// shared; all buffers below are thread-private (paper Fig. 3).
struct WalkerState
{
  std::variant<ElectronsAoS, ElectronsSoA> electrons; ///< the run's one layout
  OrbitalOutputs out;
  // Pseudopotential quadrature batch: one V output slice per quadrature
  // point, filled by the crowd's multi-position quadrature request.
  aligned_vector<qmc_real> quad_v;
  std::vector<qmc_real*> quad_v_ptrs;
  std::vector<Vec3<qmc_real>> quad_r;
  DetUpdater det_up, det_dn;
  Xoshiro256 rng;
  ProfileRegistry profile;
  std::vector<double> phi;           ///< determinant column scratch
  std::vector<Vec3<qmc_real>> jgrad; ///< full-Jastrow gradient scratch
  std::vector<qmc_real> jlap;        ///< full-Jastrow Laplacian scratch
  std::size_t accepted = 0;
  std::size_t attempted = 0;
  std::size_t orbital_evals = 0;
};

/// The sweep's partition for @p crowds crowds, shared by every driver.  The
/// sweep opens at most one level of parallel region: several crowds each
/// sweep on one thread of the crowds' region (inner 1), and only a single
/// crowd, whose sweep opens no region of its own, hands its facade requests
/// an inner team — the 1 × N shape, sized by the config knob (-1 resolved
/// through the wisdom entry) through the topology-aware
/// ThreadPartition::resolve.  Callers surface the result via team_path and
/// outer/inner_threads_used.
inline ThreadPartition resolve_team_partition(const MiniQMCConfig& cfg, const MiniQMCSystem& sys,
                                              int crowds)
{
  if (crowds > 1)
    return ThreadPartition{crowds, 1};
  int inner_req = cfg.inner_threads;
  if (inner_req < 0)
    inner_req = sys.tuned_inner_threads; // 0 when nothing was tuned => auto
  // The outer width is the one crowd: a forced MQC_PARTITION outer can size
  // the team but must not misreport the region that actually runs.
  return ThreadPartition{1, ThreadPartition::resolve(1, inner_req).inner};
}

/// Gaussian trial move.
inline Vec3<qmc_real> propose(Xoshiro256& rng, const Vec3<qmc_real>& r, double sigma)
{
  return Vec3<qmc_real>{r.x + static_cast<qmc_real>(sigma * rng.gaussian()),
                        r.y + static_cast<qmc_real>(sigma * rng.gaussian()),
                        r.z + static_cast<qmc_real>(sigma * rng.gaussian())};
}

/// Allocate every buffer of @p w for (@p sys, @p cfg) without computing any
/// physical state: the electrons in the configured layout and the
/// output/scratch buffers.  This is the shared shell of init_walker and of
/// the restore/clone paths (qmc/checkpoint.cpp, qmc/dmc_driver.cpp), which
/// set the full committed state anyway (the distance tables rebuilt from the
/// restored positions) and must not pay the O(norb) orbital evaluations of a
/// fresh build.
inline void init_walker_shell(WalkerState& w, const MiniQMCSystem& sys, const MiniQMCConfig& cfg)
{
  if (cfg.optimized_dt_jastrow)
    w.electrons.emplace<ElectronsSoA>(sys);
  else
    w.electrons.emplace<ElectronsAoS>(sys);
  w.out = OrbitalOutputs(sys.out_pad, /*aos=*/cfg.spo == SpoLayout::AoS);
  w.quad_v.resize(static_cast<std::size_t>(sys.nq) * sys.out_pad);
  w.quad_v_ptrs.resize(static_cast<std::size_t>(sys.nq));
  for (int q = 0; q < sys.nq; ++q)
    w.quad_v_ptrs[static_cast<std::size_t>(q)] =
        w.quad_v.data() + static_cast<std::size_t>(q) * sys.out_pad;
  w.quad_r.resize(static_cast<std::size_t>(sys.nq));
  w.phi.resize(static_cast<std::size_t>(sys.norb));
  w.jgrad.resize(static_cast<std::size_t>(sys.nel));
  w.jlap.resize(static_cast<std::size_t>(sys.nel));
}

/// Walker setup (not profiled): rng stream, positions, tables, output
/// buffers, determinants.  Each walker's state is a function of (config,
/// walker id) only, never of crowd or shard membership.
inline void init_walker(WalkerState& w, const MiniQMCSystem& sys, const MiniQMCConfig& cfg,
                        int wid)
{
  init_walker_shell(w, sys, cfg);
  w.rng = Xoshiro256::for_stream(cfg.seed, static_cast<std::uint64_t>(wid));
  const ParticleSetSoA<qmc_real> r0 = random_particles<qmc_real>(
      sys.nel, sys.crystal.lattice, cfg.seed + 1000 + static_cast<std::uint64_t>(wid));
  std::visit(
      [&](auto& el) {
        for (int e = 0; e < sys.nel; ++e)
          el.r.set(e, r0[e]);
        el.ee->evaluate(el.r);
        el.ei->evaluate(el.r);
      },
      w.electrons);

  // Determinants from the initial configuration (double precision).  Each
  // spin's norb orbital columns come from one multi-position V request
  // through the facade, bit-identical to norb single-position calls.
  {
    const auto norb = static_cast<std::size_t>(sys.norb);
    aligned_vector<qmc_real> cols(norb * sys.out_pad);
    std::vector<qmc_real*> slots(norb);
    std::vector<Vec3<qmc_real>> pos(norb);
    for (std::size_t e = 0; e < norb; ++e)
      slots[e] = cols.data() + e * sys.out_pad;
    OrbitalResource<qmc_real> res;
    auto build = [&](DetUpdater& det, int first) {
      for (int e = 0; e < sys.norb; ++e)
        pos[static_cast<std::size_t>(e)] = r0[first + e];
      OrbitalEvalRequest<qmc_real> rq;
      rq.deriv = DerivLevel::V;
      rq.positions = pos.data();
      rq.count = sys.norb;
      rq.v = slots.data();
      sys.spo.evaluate(rq, res);
      // The diagonal boost keeps the synthetic (random-coefficient) orbital
      // matrices well conditioned; production orbitals are near-orthogonal
      // at distinct electron positions, which this emulates.
      Matrix<double> a(sys.norb);
      for (int e = 0; e < sys.norb; ++e) {
        const qmc_real* v = slots[static_cast<std::size_t>(e)];
        for (int n = 0; n < sys.norb; ++n)
          a(n, e) = static_cast<double>(v[n]) + (n == e ? 1.0 : 0.0);
      }
      det.build(a);
    };
    build(w.det_up, 0);
    build(w.det_dn, sys.norb);
  }
}

/// Price and decide one electron move once the trial position and its
/// orbital values are known: distance-table temp rows, Jastrow ratio,
/// determinant ratio, Metropolis accept/reject with commits.  The values are
/// the walker's slice of the crowd's VGH request at @p r_new, in w.out;
/// everything inside is arithmetic on the walker's own state (@p el is its
/// electrons) and rng stream.
template <typename E>
inline void metropolis_move(WalkerState& w, E& el, const MiniQMCSystem& sys, int e,
                            const Vec3<qmc_real>& r_new)
{
  double log_jr = 0.0;
  {
    ScopedTimer t(w.profile, kSectionDistance);
    el.ee->compute_temp(el.r, r_new, e);
    el.ei->compute_temp(r_new);
  }
  {
    ScopedTimer t(w.profile, kSectionJastrow);
    log_jr = el.j2(sys).ratio_log(*el.ee, e) + el.j1(sys).ratio_log(*el.ei, e);
  }

  double det_ratio;
  DetUpdater& det = e < sys.norb ? w.det_up : w.det_dn;
  const int col = e < sys.norb ? e : e - sys.norb;
  {
    ScopedTimer t(w.profile, kSectionDeterminant);
    const qmc_real* v = w.out.v.data();
    for (int n = 0; n < sys.norb; ++n)
      w.phi[static_cast<std::size_t>(n)] = static_cast<double>(v[n]) + (n == col ? 1.0 : 0.0);
    det_ratio = det.ratio(w.phi.data(), col);
  }

  const double p = std::exp(2.0 * log_jr) * det_ratio * det_ratio;
  if (w.rng.uniform() < p) {
    ++w.accepted;
    {
      ScopedTimer t(w.profile, kSectionDistance);
      el.ee->accept_move(e);
      el.ei->accept_move(e);
    }
    {
      ScopedTimer t(w.profile, kSectionDeterminant);
      det.accept_move(w.phi.data(), col);
    }
    el.r.set(e, r_new);
  }
}

/// Measurement-phase quadrature for one electron, minus the V batch: the
/// per-point distance rows and one-body Jastrow ratios.  The quadrature
/// positions must already be in w.quad_r (proposed from the walker's rng).
template <typename E>
inline void quadrature_dist_jastrow(WalkerState& w, E& el, const MiniQMCSystem& sys,
                                    const MiniQMCConfig& cfg, int e)
{
  for (int q = 0; q < cfg.quadrature_points; ++q) {
    {
      ScopedTimer t(w.profile, kSectionDistance);
      el.ei->compute_temp(w.quad_r[static_cast<std::size_t>(q)]);
    }
    {
      ScopedTimer t(w.profile, kSectionJastrow);
      (void)el.j1(sys).ratio_log(*el.ei, e);
    }
  }
}

/// Full Jastrow gradients/Laplacians once per step (local energy analogue).
template <typename E>
inline void full_jastrow(WalkerState& w, const E& el, const MiniQMCSystem& sys)
{
  ScopedTimer t(w.profile, kSectionJastrow);
  (void)el.j2(sys).evaluate_log(*el.ee, w.jgrad.data(), w.jlap.data());
  (void)el.j1(sys).evaluate_log(*el.ei, w.jgrad.data(), w.jlap.data());
}

/// Reduce per-walker state into the result (profiles, counters, per-walker
/// trajectory fingerprints).
inline void reduce_result(MiniQMCResult& result, std::vector<WalkerState>& walkers)
{
  std::size_t attempted = 0, accepted = 0;
  result.walker_accepts.resize(walkers.size());
  result.walker_log_det.resize(walkers.size());
  for (std::size_t i = 0; i < walkers.size(); ++i) {
    WalkerState& w = walkers[i];
    result.profile.merge(w.profile);
    attempted += w.attempted;
    accepted += w.accepted;
    result.spline_orbital_evals += w.orbital_evals;
    result.walker_accepts[i] = w.accepted;
    result.walker_log_det[i] = w.det_up.log_det() + w.det_dn.log_det();
  }
  result.moves_attempted = attempted;
  result.acceptance_ratio =
      attempted > 0 ? static_cast<double>(accepted) / static_cast<double>(attempted) : 0.0;
}

/// The DMC branching driver (dmc_driver.cpp); dispatched to by run_miniqmc.
MiniQMCResult run_miniqmc_dmc(const MiniQMCConfig& cfg);

// --------------------------------------------------------------------------
// Checkpoint glue (implemented in qmc/checkpoint.cpp).
//
// Every driver reaches it through its PopulationCore (crowd_sweep.h): sweep()
// advances all walkers to the next step boundary inside one team region,
// then boundary() — OUTSIDE any team region, with no OrbitalResource live —
// snapshots / injects faults / stops, and resume() restores before the first
// sweep.  Chunking the sweep into epochs is trajectory-neutral: per-walker
// state and rng streams persist across regions.
// --------------------------------------------------------------------------

/// Per-run checkpoint/fault state resolved once from the config.
struct CheckpointRuntime
{
  std::string path;
  int interval = 0; ///< <= 0: only the final end-of-run snapshot
  std::uint64_t config_hash = 0;
  ckpt::FaultPlan fault;

  [[nodiscard]] bool enabled() const noexcept { return !path.empty(); }
};

/// Branching-run provenance that must survive a checkpoint: the Meta section
/// of a DMC snapshot appends these after the common prefix (the PR 7 format
/// already supports a variable walker-section count, so dynamic populations
/// reuse the container unchanged).
struct DmcRunState
{
  int generation = 0;         ///< completed branch generations
  double trial_energy = 0.0;  ///< E_T after the last feedback update
  std::uint64_t births = 0;   ///< cumulative walkers spawned by branching
  std::uint64_t deaths = 0;   ///< cumulative walkers killed by branching
  std::vector<double> weights; ///< per-walker branching weights (parallel to the walker vector)
};

/// Hash of every configuration field that determines the trajectory (seed,
/// system shape, layout, delay rank, ...).  Scheduling-only knobs — driver
/// mode, crowd size, tile size, inner threads, step budget — are excluded:
/// a snapshot is resumable under any of them (the bit-for-bit invariant).
[[nodiscard]] std::uint64_t miniqmc_config_hash(const MiniQMCConfig& cfg,
                                                const MiniQMCSystem& sys) noexcept;

/// Resolve path/interval/fault plan (cfg.fault_inject overrides the
/// MQC_FAULT_INJECT env var; faults are inert without a checkpoint path).
[[nodiscard]] CheckpointRuntime make_checkpoint_runtime(const MiniQMCConfig& cfg,
                                                        const MiniQMCSystem& sys);

/// First step boundary after @p step: the next interval multiple, the armed
/// fault's abort step, or the end of the run — whichever comes first.
[[nodiscard]] int next_epoch_boundary(const CheckpointRuntime& rt, int step, int steps);

/// The step-boundary snapshot point (call between team regions): writes an
/// interval-aligned or final snapshot of the live walkers (walkers.size()
/// Walker sections, plus the DMC Meta tail when @p dmc is set), applies
/// armed file faults, and exits the process when the abort fault fires at
/// this boundary.
void checkpoint_step_boundary(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                              const MiniQMCSystem& sys, std::vector<WalkerState>& walkers,
                              const DmcRunState* dmc, int step, int steps,
                              MiniQMCResult& result);

/// Resume attempt (call after the walker build, before the sweep): restores
/// every walker from the snapshot at rt.path (with `.prev` fallback) and
/// returns the step to continue from; returns 0 (fresh start) when no
/// snapshot is usable.  Without @p dmc the snapshot must hold exactly the
/// live population, restored in place.  With @p dmc it must carry the DMC
/// Meta tail: @p walkers is rebuilt at the snapshot's population size
/// (shell-init + restore per walker) and the branching provenance lands in
/// @p dmc.  Outcome is surfaced in result.resumed_from_step /
/// resume_fallback_used / resume_error — a damaged snapshot never crashes
/// and never half-applies.
[[nodiscard]] int resume_from_checkpoint(const CheckpointRuntime& rt, const MiniQMCConfig& cfg,
                                         const MiniQMCSystem& sys,
                                         std::vector<WalkerState>& walkers, DmcRunState* dmc,
                                         MiniQMCResult& result);

// --------------------------------------------------------------------------
// Walker clone (implemented in qmc/checkpoint.cpp).
//
// The checkpoint Walker-section codec doubles as the DMC walker-clone path:
// a spawned child is exactly a snapshot round-trip of its parent (positions,
// rng stream incl. the Box–Muller cache, determinant engine state, and the
// distance tables rebuilt from the positions), so clone fidelity is pinned
// by the same code the resume tests already pin bit-for-bit.
// --------------------------------------------------------------------------

/// Clone the FULL per-walker state of @p src into @p dst (the DMC birth
/// path): blob round-trip for positions/rng/counters, whose restore rebuilds
/// both distance tables from the positions, plus a plain copy of the
/// determinant engines so the O(norb^2) inverses skip the byte codec.
/// @p dst must be shell-initialized for the same (sys, cfg); its rng stream
/// is the parent's — callers give the child its own stream
/// (Xoshiro256::split) afterwards.
void clone_walker_state(WalkerState& dst, WalkerState& src, const MiniQMCSystem& sys,
                        const MiniQMCConfig& cfg);

} // namespace mqc::detail

#endif // MQC_QMC_MINIQMC_CONTEXT_H
