// Crowd lock-step driver tests.
//
// The contract under test (qmc/crowd_sweep.h): with the same per-walker rng
// streams, a crowd trajectory IS the per-walker trajectory — same Metropolis
// decisions, same per-walker accept counts, bit-identical final log dets —
// for every crowd size, including sizes that do not divide the walker count,
// because the multi-position spline kernels are bit-identical to their
// single-position counterparts and everything else is per-walker arithmetic.
// The WavefunctionCrowd tests check the same equivalence on the templated
// Slater-Jastrow wave function in float and double, with and without an
// inner team.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.h"
#include "common/threading.h"
#include "core/synthetic_orbitals.h"
#include "core/tuner.h"
#include "particles/graphite.h"
#include "qmc/crowd_driver.h"
#include "qmc/miniqmc_driver.h"
#include "qmc/miniqmc_tuner.h"
#include "qmc/wavefunction.h"

using namespace mqc;

namespace {

MiniQMCConfig crowd_test_config()
{
  MiniQMCConfig cfg;
  cfg.supercell = {1, 1, 1};
  cfg.grid_size = 12;
  cfg.num_splines = 16; // 32 electrons
  cfg.steps = 2;
  cfg.num_walkers = 4;
  cfg.quadrature_points = 2;
  return cfg;
}

/// Bit-for-bit trajectory comparison: the Monte Carlo process must be THE
/// SAME process, not a statistically similar one.
void expect_identical_trajectories(const MiniQMCResult& a, const MiniQMCResult& b,
                                   const char* what)
{
  EXPECT_EQ(a.moves_attempted, b.moves_attempted) << what;
  EXPECT_EQ(a.spline_orbital_evals, b.spline_orbital_evals) << what;
  EXPECT_EQ(a.acceptance_ratio, b.acceptance_ratio) << what;
  ASSERT_EQ(a.walker_accepts.size(), b.walker_accepts.size()) << what;
  ASSERT_EQ(a.walker_log_det.size(), b.walker_log_det.size()) << what;
  for (std::size_t i = 0; i < a.walker_accepts.size(); ++i) {
    EXPECT_EQ(a.walker_accepts[i], b.walker_accepts[i]) << what << " walker " << i;
    // Exact double equality: same rng stream + bit-identical kernels must
    // give the bit-identical accumulated log det.
    EXPECT_EQ(a.walker_log_det[i], b.walker_log_det[i]) << what << " walker " << i;
  }
}

} // namespace

TEST(CrowdDriver, BitForBitMatchesPerWalkerAcrossCrowdSizes)
{
  struct LayoutCase
  {
    SpoLayout spo;
    bool optimized;
    const char* name;
  };
  // The engine and the distance-table layout are independent choices: the
  // last two rows cross them (the first is what bench_table3_profile runs).
  const LayoutCase cases[] = {{SpoLayout::AoS, false, "AoS"},
                              {SpoLayout::SoA, true, "SoA"},
                              {SpoLayout::AoSoA, true, "AoSoA"},
                              {SpoLayout::AoS, true, "AoS engine, SoA tables"},
                              {SpoLayout::AoSoA, false, "AoSoA engine, AoS tables"}};
  for (const auto& lc : cases) {
    auto cfg = crowd_test_config();
    cfg.spo = lc.spo;
    cfg.tile_size = 16;
    cfg.optimized_dt_jastrow = lc.optimized;
    const auto per_walker = run_miniqmc(cfg);
    ASSERT_EQ(per_walker.walker_accepts.size(), 4u);
    // Crowd sizes: single-walker crowds, a divisor, a NON-divisor (4 = 3+1),
    // and the whole population as one crowd (crowd_size = 0).
    for (int cs : {1, 2, 3, 0}) {
      auto ccfg = cfg;
      ccfg.driver = DriverMode::Crowd;
      ccfg.crowd_size = cs;
      const auto crowd = run_miniqmc(ccfg);
      expect_identical_trajectories(per_walker, crowd, lc.name);
    }
  }
}

TEST(CrowdDriver, SplinePathIsAnExplicitCapabilitiesDecision)
{
  // The crowd driver's single-vs-multi schedule is a surfaced decision, not
  // a silent fallback: multi-position sweeps whenever the engine has them
  // (SoA, AoSoA), single-position lock-step calls on the AoS baseline.
  // Bench comparisons read spline_path so they can't accidentally measure
  // the fallback believing it was the batched path.
  // A crowd of one batches nothing, so it reports single-position even on
  // an engine that has the multi-position kernels.
  struct PathCase
  {
    SpoLayout spo;
    int crowd_size;
    EvalPath expected;
  };
  const PathCase cases[] = {{SpoLayout::AoS, 2, EvalPath::SinglePosition},
                            {SpoLayout::SoA, 2, EvalPath::MultiPosition},
                            {SpoLayout::AoSoA, 2, EvalPath::MultiPosition},
                            {SpoLayout::AoSoA, 1, EvalPath::SinglePosition}};
  for (const auto& pc : cases) {
    auto cfg = crowd_test_config();
    cfg.steps = 1;
    cfg.spo = pc.spo;
    cfg.tile_size = 16;
    cfg.driver = DriverMode::Crowd;
    cfg.crowd_size = pc.crowd_size;
    const auto r = run_miniqmc(cfg);
    EXPECT_EQ(r.spline_path, pc.expected)
        << "layout " << static_cast<int>(pc.spo) << " crowd " << pc.crowd_size;
    EXPECT_EQ(r.crowd_size_used, pc.crowd_size);
  }
  // The per-walker driver always runs single-position moves.
  auto cfg = crowd_test_config();
  cfg.steps = 1;
  cfg.spo = SpoLayout::AoSoA;
  const auto r = run_miniqmc(cfg);
  EXPECT_EQ(r.spline_path, EvalPath::SinglePosition);
  EXPECT_EQ(r.crowd_size_used, 1);
}

TEST(CrowdDriver, PerWalkerReportsTheProvenanceOfACrowdOfOne)
{
  // The per-walker driver IS the crowd sweep with crowds of one: every
  // surfaced schedule decision must match an explicit crowd-of-one run (the
  // trajectory half is BitForBitMatchesPerWalkerAcrossCrowdSizes).
  for (SpoLayout spo : {SpoLayout::AoS, SpoLayout::SoA, SpoLayout::AoSoA}) {
    auto cfg = crowd_test_config();
    cfg.steps = 1;
    cfg.spo = spo;
    cfg.tile_size = 16;
    const auto per_walker = run_miniqmc(cfg);
    auto ccfg = cfg;
    ccfg.driver = DriverMode::Crowd;
    ccfg.crowd_size = 1;
    const auto crowd1 = run_miniqmc(ccfg);
    SCOPED_TRACE(::testing::Message() << "layout " << static_cast<int>(spo));
    EXPECT_EQ(per_walker.spline_path, crowd1.spline_path);
    EXPECT_EQ(per_walker.crowd_size_used, crowd1.crowd_size_used);
    EXPECT_EQ(per_walker.outer_threads_used, crowd1.outer_threads_used);
    EXPECT_EQ(per_walker.inner_threads_used, crowd1.inner_threads_used);
    EXPECT_EQ(per_walker.team_path, crowd1.team_path);
  }
}

TEST(CrowdDriver, CrowdSizeResolutionClampsAndDefaults)
{
  auto cfg = crowd_test_config();
  cfg.steps = 1;
  cfg.spo = SpoLayout::AoSoA;
  cfg.tile_size = 16;
  cfg.driver = DriverMode::Crowd;

  cfg.crowd_size = 0; // whole population
  EXPECT_EQ(run_miniqmc(cfg).crowd_size_used, cfg.num_walkers);

  cfg.crowd_size = 100; // clamped to the population
  EXPECT_EQ(run_miniqmc(cfg).crowd_size_used, cfg.num_walkers);

  cfg.crowd_size = -1; // auto without wisdom: whole population
  EXPECT_EQ(run_miniqmc(cfg).crowd_size_used, cfg.num_walkers);
}

TEST(CrowdDriver, NestedPartitionsAreBitForBitAcrossShapes)
{
  // The hierarchical thread-team acceptance: every partition shape —
  // 1 crowd × wide inner team, N crowds × 1 (flat), inner sizes that divide
  // neither the tile count nor the batch, teams wider than the work — must
  // reproduce the per-walker trajectory bit-for-bit on every layout,
  // because inner teams only distribute independent (tile, position-block)
  // work items.  Only a one-crowd population keeps its inner team: several
  // crowds sweep flat whatever the knob asks, so the sweep never nests a
  // parallel region.
  struct LayoutCase
  {
    SpoLayout spo;
    bool optimized;
    const char* name;
  };
  const LayoutCase cases[] = {{SpoLayout::AoS, false, "AoS"},
                              {SpoLayout::SoA, true, "SoA"},
                              {SpoLayout::AoSoA, true, "AoSoA"}};
  struct Shape
  {
    int crowd_size;
    int inner;
  };
  // (crowd, inner): 1×N (whole population, wide team), N×1 (flat), a
  // non-dividing crowd with a non-dividing team, single-walker crowds with
  // teams, and a team wider than the tile count (16 splines / tile 16) —
  // the last three run flat.  One crowd with a team that divides nothing
  // (3) and with one wider than the tile count (8) keeps those cases.
  const Shape shapes[] = {{0, 4}, {0, 1}, {2, 3}, {3, 2}, {1, 2}, {2, 8}, {0, 3}, {0, 8}};
  for (const auto& lc : cases) {
    auto cfg = crowd_test_config();
    cfg.spo = lc.spo;
    cfg.tile_size = 16;
    cfg.optimized_dt_jastrow = lc.optimized;
    const auto per_walker = run_miniqmc(cfg);
    for (const auto& sh : shapes) {
      auto ccfg = cfg;
      ccfg.driver = DriverMode::Crowd;
      ccfg.crowd_size = sh.crowd_size;
      ccfg.inner_threads = sh.inner;
      const auto crowd = run_miniqmc(ccfg);
      SCOPED_TRACE(::testing::Message() << lc.name << " crowd=" << sh.crowd_size
                                        << " inner=" << sh.inner);
      expect_identical_trajectories(per_walker, crowd, lc.name);
      EXPECT_EQ(crowd.inner_threads_used, sh.crowd_size == 0 ? sh.inner : 1);
      EXPECT_EQ(crowd.outer_threads_used,
                sh.crowd_size == 0 ? 1 : (4 + sh.crowd_size - 1) / sh.crowd_size);
    }
  }
}

TEST(CrowdDriver, PerWalkerDriverHonorsInnerTeamsBitForBit)
{
  // The per-walker driver owns the same seam: it is 4 crowds of one, so an
  // inner-team request runs flat and walks the identical trajectory.
  auto cfg = crowd_test_config();
  cfg.spo = SpoLayout::AoSoA;
  cfg.tile_size = 16;
  cfg.optimized_dt_jastrow = true;
  cfg.delay_rank = 0;
  cfg.inner_threads = 1;
  const auto flat = run_miniqmc(cfg);
  EXPECT_EQ(flat.team_path, TeamPath::Flat);
  cfg.inner_threads = 3;
  const auto nested = run_miniqmc(cfg);
  expect_identical_trajectories(flat, nested, "per-walker");
  EXPECT_EQ(nested.inner_threads_used, 1);
  EXPECT_EQ(nested.team_path, TeamPath::Flat);
}

TEST(CrowdDriver, SeveralCrowdsSweepFlatAndLeaveTheRuntimeNestingAlone)
{
  // The sweep opens at most one level of parallel region: two crowds asked
  // for inner teams of 2 sweep flat, report it, walk the inner-1 trajectory,
  // and leave the runtime's active-level limit where it was.
  auto cfg = crowd_test_config();
  cfg.spo = SpoLayout::AoSoA;
  cfg.tile_size = 16;
  cfg.driver = DriverMode::Crowd;
  cfg.crowd_size = 2; // 2 crowds -> an active outer region
  cfg.inner_threads = 1;
  const auto baseline = run_miniqmc(cfg);

#ifdef _OPENMP
  const int levels_before = omp_get_max_active_levels();
#endif
  cfg.inner_threads = 2;
  const auto two = run_miniqmc(cfg);
  EXPECT_EQ(two.team_path, TeamPath::Flat);
  EXPECT_EQ(two.outer_threads_used, 2);
  EXPECT_EQ(two.inner_threads_used, 1);
  expect_identical_trajectories(baseline, two, "two crowds, inner 2");
#ifdef _OPENMP
  EXPECT_EQ(omp_get_max_active_levels(), levels_before);
#endif
}

TEST(CrowdDriver, InnerThreadsResolutionExplicitAutoAndTuned)
{
  auto cfg = crowd_test_config();
  cfg.steps = 1;
  cfg.spo = SpoLayout::AoSoA;
  cfg.tile_size = 16;
  cfg.driver = DriverMode::Crowd;
  cfg.crowd_size = 0; // one crowd: the only shape that holds an inner team

  cfg.inner_threads = 3; // explicit
  EXPECT_EQ(run_miniqmc(cfg).inner_threads_used, 3);

  cfg.inner_threads = 0; // auto: topology split, at least one thread
  EXPECT_GE(run_miniqmc(cfg).inner_threads_used, 1);

  // -1 = tuned from wisdom: the v4 inner_threads field feeds the partition
  // (proving the tuner knob is consumed end-to-end and stays
  // trajectory-neutral — same trajectory as the explicit run above).
  Wisdom wisdom;
  Wisdom::Entry entry;
  entry.tile_size = 16;
  entry.pos_block = 2;
  entry.crowd_size = 2;
  entry.inner_threads = 2;
  wisdom.insert(miniqmc_wisdom_key(cfg.num_splines, cfg.grid_size, cfg.num_walkers), entry);
  cfg.wisdom = &wisdom;
  cfg.inner_threads = -1;
  const auto tuned = run_miniqmc(cfg);
  EXPECT_EQ(tuned.inner_threads_used, 2);

  cfg.wisdom = nullptr;
  cfg.inner_threads = -1; // tuned without wisdom: falls back to auto
  EXPECT_GE(run_miniqmc(cfg).inner_threads_used, 1);

  cfg.crowd_size = 2; // two crowds sweep flat whatever the knob asks
  cfg.inner_threads = 3;
  EXPECT_EQ(run_miniqmc(cfg).inner_threads_used, 1);
}

// A wisdom entry is untrusted input: a tile width that is not a lane multiple
// rounds up to one (tile width is trajectory-neutral), so Nb = 8 runs the
// Nb = 16 trajectory bit for bit instead of misplacing orbitals.
TEST(CrowdDriver, WisdomTileWidthRoundsUpToALaneMultiple)
{
  auto cfg = crowd_test_config();
  cfg.num_splines = 32;
  cfg.spo = SpoLayout::AoSoA;
  cfg.optimized_dt_jastrow = true;
  cfg.driver = DriverMode::Crowd;
  cfg.crowd_size = 2;
  cfg.tile_size = 16;
  const auto lane_width = run_miniqmc(cfg);

  Wisdom wisdom;
  Wisdom::Entry entry;
  entry.tile_size = 8;
  entry.pos_block = 2;
  wisdom.insert(miniqmc_wisdom_key(cfg.num_splines, cfg.grid_size, cfg.num_walkers), entry);
  cfg.wisdom = &wisdom;
  cfg.tile_size = 64; // the wisdom entry wins over the explicit width
  expect_identical_trajectories(lane_width, run_miniqmc(cfg), "wisdom Nb = 8 vs Nb = 16");
}

TEST(CrowdDriver, SeedDeterminismAcrossRepeatedRuns)
{
  // Fixed seed + fixed walker count => identical acceptance_ratio and
  // moves_attempted on every run, in both driver modes.
  for (DriverMode mode : {DriverMode::PerWalker, DriverMode::Crowd}) {
    auto cfg = crowd_test_config();
    cfg.spo = SpoLayout::AoSoA;
    cfg.tile_size = 16;
    cfg.driver = mode;
    cfg.crowd_size = 3;
    cfg.delay_rank = 0;
    const auto r1 = run_miniqmc(cfg);
    const auto r2 = run_miniqmc(cfg);
    EXPECT_EQ(r1.moves_attempted, r2.moves_attempted);
    EXPECT_EQ(r1.acceptance_ratio, r2.acceptance_ratio);
    EXPECT_EQ(r1.spline_orbital_evals, r2.spline_orbital_evals);
    ASSERT_EQ(r1.walker_log_det.size(), r2.walker_log_det.size());
    for (std::size_t i = 0; i < r1.walker_log_det.size(); ++i)
      EXPECT_EQ(r1.walker_log_det[i], r2.walker_log_det[i]);
  }
}

// ---------------------------------------------------------------------------
// Mixed precision through the drivers: cfg.precision_path = Mixed swaps the
// SoA / AoSoA engines for their <float, double> variants — a different (more
// accurate) trajectory, but still a deterministic function of (config, seed)
// and still decomposition-neutral.  AoS has no mixed variant: the request
// resolves to Native and says so in the result.
// ---------------------------------------------------------------------------

TEST(CrowdDriver, MixedPathIsSurfacedAndSeedDeterministic)
{
  for (SpoLayout spo : {SpoLayout::SoA, SpoLayout::AoSoA}) {
    for (DriverMode mode : {DriverMode::PerWalker, DriverMode::Crowd}) {
      auto cfg = crowd_test_config();
      cfg.spo = spo;
      cfg.tile_size = 16;
      cfg.optimized_dt_jastrow = true;
      cfg.driver = mode;
      cfg.crowd_size = 3;
      cfg.precision_path = PrecisionPath::Mixed;
      const auto r1 = run_miniqmc(cfg);
      const auto r2 = run_miniqmc(cfg);
      EXPECT_EQ(r1.precision_path, PrecisionPath::Mixed)
          << "layout " << static_cast<int>(spo) << " mode " << static_cast<int>(mode);
      expect_identical_trajectories(r1, r2, "mixed rerun");
    }
  }
}

TEST(CrowdDriver, MixedPathIsDecompositionNeutral)
{
  // The same crowd-size sweep the Native bit-for-bit test runs, under
  // Mixed: every decomposition must reproduce the per-walker trajectory.
  for (SpoLayout spo : {SpoLayout::SoA, SpoLayout::AoSoA}) {
    auto cfg = crowd_test_config();
    cfg.spo = spo;
    cfg.tile_size = 16;
    cfg.optimized_dt_jastrow = true;
    cfg.precision_path = PrecisionPath::Mixed;
    const auto per_walker = run_miniqmc(cfg);
    for (int cs : {1, 2, 3, 0}) {
      auto ccfg = cfg;
      ccfg.driver = DriverMode::Crowd;
      ccfg.crowd_size = cs;
      const auto crowd = run_miniqmc(ccfg);
      EXPECT_EQ(crowd.precision_path, PrecisionPath::Mixed);
      expect_identical_trajectories(per_walker, crowd,
                                    spo == SpoLayout::SoA ? "mixed SoA" : "mixed AoSoA");
    }
  }
}

TEST(CrowdDriver, MixedActuallyChangesTheKernelsAndAoSFallsBack)
{
  // (a) Mixed is not a no-op: on the SoA layout the narrowed tables +
  // DP accumulation produce a different trajectory than the SP-native
  // engines (if these matched bit-for-bit the knob would be dead wiring).
  auto cfg = crowd_test_config();
  cfg.spo = SpoLayout::SoA;
  cfg.optimized_dt_jastrow = true;
  const auto native = run_miniqmc(cfg);
  EXPECT_EQ(native.precision_path, PrecisionPath::Native);
  auto mcfg = cfg;
  mcfg.precision_path = PrecisionPath::Mixed;
  const auto mixed = run_miniqmc(mcfg);
  bool any_differ = false;
  ASSERT_EQ(native.walker_log_det.size(), mixed.walker_log_det.size());
  for (std::size_t i = 0; i < native.walker_log_det.size(); ++i)
    any_differ = any_differ || native.walker_log_det[i] != mixed.walker_log_det[i];
  EXPECT_TRUE(any_differ) << "mixed trajectory is bit-identical to native: knob not wired";

  // (b) AoS has no mixed variant: the request resolves to Native, runs the
  // EXACT native trajectory, and the result says Native — never a silent
  // half-engaged state.
  auto acfg = crowd_test_config();
  acfg.spo = SpoLayout::AoS;
  acfg.optimized_dt_jastrow = false;
  const auto aos_native = run_miniqmc(acfg);
  auto amcfg = acfg;
  amcfg.precision_path = PrecisionPath::Mixed;
  const auto aos_mixed = run_miniqmc(amcfg);
  EXPECT_EQ(aos_mixed.precision_path, PrecisionPath::Native);
  expect_identical_trajectories(aos_native, aos_mixed, "AoS fallback");
}

TEST(CrowdDriver, DefaultConfigIsBitForBitTheExplicitNativePath)
{
  // Regression guard for every pre-knob trajectory: a config that never
  // mentions precision_path must be the same run as one that asks for
  // Native explicitly, on every layout.
  for (SpoLayout spo : {SpoLayout::AoS, SpoLayout::SoA, SpoLayout::AoSoA}) {
    auto cfg = crowd_test_config();
    cfg.spo = spo;
    cfg.tile_size = 16;
    cfg.optimized_dt_jastrow = spo != SpoLayout::AoS;
    cfg.driver = DriverMode::Crowd;
    cfg.crowd_size = 2;
    const auto implicit = run_miniqmc(cfg);
    auto ecfg = cfg;
    ecfg.precision_path = PrecisionPath::Native;
    const auto explicit_native = run_miniqmc(ecfg);
    EXPECT_EQ(implicit.precision_path, PrecisionPath::Native);
    expect_identical_trajectories(implicit, explicit_native, "default vs explicit Native");
  }
}

TEST(CrowdDriver, MoveCountScalesExactlyWithSteps)
{
  // The `steps` split changes only how long the chain runs: the attempted
  // move count is walkers * steps * electrons exactly, for both drivers.
  for (DriverMode mode : {DriverMode::PerWalker, DriverMode::Crowd}) {
    auto cfg = crowd_test_config();
    cfg.driver = mode;
    cfg.crowd_size = 3;
    cfg.steps = 1;
    const auto r1 = run_miniqmc(cfg);
    cfg.steps = 3;
    const auto r3 = run_miniqmc(cfg);
    EXPECT_EQ(r1.moves_attempted,
              static_cast<std::size_t>(4) * 1 * static_cast<std::size_t>(r1.num_electrons));
    EXPECT_EQ(r3.moves_attempted, 3 * r1.moves_attempted);
  }
}

TEST(CrowdDriver, ProfileCoversAllSections)
{
  auto cfg = crowd_test_config();
  cfg.spo = SpoLayout::AoSoA;
  cfg.tile_size = 16;
  cfg.driver = DriverMode::Crowd;
  cfg.crowd_size = 2;
  const auto res = run_miniqmc(cfg);
  EXPECT_GT(res.profile.seconds(kSectionBspline), 0.0);
  EXPECT_GT(res.profile.seconds(kSectionDistance), 0.0);
  EXPECT_GT(res.profile.seconds(kSectionJastrow), 0.0);
  EXPECT_GT(res.profile.seconds(kSectionDeterminant), 0.0);
  EXPECT_GT(res.acceptance_ratio, 0.0);
  EXPECT_LT(res.acceptance_ratio, 1.0);
}

// ---------------------------------------------------------------------------
// WavefunctionCrowd: lock-step Slater-Jastrow pricing, float and double.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
struct CrowdWfHarness
{
  static constexpr int kWalkers = 3;

  CrystalSystem sys = make_orthorhombic_carbon(1, 1, 1);
  std::shared_ptr<CoefStorage<T>> coefs;
  ParticleSetSoA<T> ions;
  int norb = 5;
  T rcut;

  explicit CrowdWfHarness(std::uint64_t seed = 17)
  {
    const double l = sys.lattice.rows()[0].x;
    const auto pw = PlaneWaveOrbitals::make(norb, Vec3<double>{l, l, l}, seed);
    coefs = build_planewave_storage(Grid3D<T>::cube(12, static_cast<T>(l)), pw);
    ions = ParticleSetSoA<T>(sys.num_ions());
    for (int i = 0; i < sys.num_ions(); ++i)
      ions.set(i, Vec3<T>{static_cast<T>(sys.ions[i].x), static_cast<T>(sys.ions[i].y),
                          static_cast<T>(sys.ions[i].z)});
    rcut = static_cast<T>(0.9 * sys.lattice.wigner_seitz_radius());
  }

  std::unique_ptr<SlaterJastrow<T>> make_wf() const
  {
    auto j1 = BsplineJastrowFunctor<T>::make_exponential(T(-1.0), T(0.8), rcut);
    auto j2 = BsplineJastrowFunctor<T>::make_exponential(T(-0.5), T(1.0), rcut);
    return std::make_unique<SlaterJastrow<T>>(coefs, sys.lattice, ions, j1, j2,
                                              MinImageMode::Fast);
  }

  ParticleSetSoA<T> electrons_for(int walker) const
  {
    return random_particles<T>(2 * norb, sys.lattice, 100 + static_cast<std::uint64_t>(walker));
  }

  /// Run the same Markov chain through a sequential per-walker loop and a
  /// lock-step crowd and require bit-identical ratios and final log psi.
  /// @p team hands the crowd an inner thread team (batched facade requests
  /// schedule onto it) — equivalence must hold for every team size.
  void run_equivalence(TeamHandle team = TeamHandle::serial())
  {
    std::vector<std::unique_ptr<SlaterJastrow<T>>> seq, batched;
    for (int i = 0; i < kWalkers; ++i) {
      seq.push_back(make_wf());
      batched.push_back(make_wf());
      const auto elec = electrons_for(i);
      ASSERT_TRUE(seq.back()->initialize(elec));
      ASSERT_TRUE(batched.back()->initialize(elec));
    }
    std::vector<SlaterJastrow<T>*> ptrs;
    for (auto& w : batched)
      ptrs.push_back(w.get());
    WavefunctionCrowd<T> crowd(ptrs);
    crowd.set_team(team);
    ASSERT_EQ(crowd.size(), kWalkers);

    const int nel = 2 * norb;
    // Per-walker proposal and decision streams, shared by both paths.
    std::vector<Xoshiro256> prop_rng, dec_rng;
    for (int i = 0; i < kWalkers; ++i) {
      prop_rng.push_back(Xoshiro256::for_stream(7, static_cast<std::uint64_t>(i)));
      dec_rng.push_back(Xoshiro256::for_stream(8, static_cast<std::uint64_t>(i)));
    }

    std::vector<Vec3<T>> rnew(kWalkers);
    std::vector<double> lr_crowd(kWalkers);
    int accepted = 0;
    for (int move = 0; move < 3 * nel; ++move) {
      const int iel = move % nel;
      for (int i = 0; i < kWalkers; ++i) {
        const Vec3<T> r = seq[static_cast<std::size_t>(i)]->electrons()[iel];
        auto& rng = prop_rng[static_cast<std::size_t>(i)];
        rnew[static_cast<std::size_t>(i)] =
            Vec3<T>{r.x + static_cast<T>(0.3 * rng.gaussian()),
                    r.y + static_cast<T>(0.3 * rng.gaussian()),
                    r.z + static_cast<T>(0.3 * rng.gaussian())};
      }
      crowd.ratio_log(iel, rnew.data(), lr_crowd.data());
      for (int i = 0; i < kWalkers; ++i) {
        const double lr_seq =
            seq[static_cast<std::size_t>(i)]->ratio_log(iel, rnew[static_cast<std::size_t>(i)]);
        // Bit-for-bit: the crowd's batched engine sweep is the same
        // arithmetic as the sequential per-walker evaluation.
        ASSERT_EQ(lr_crowd[static_cast<std::size_t>(i)], lr_seq)
            << "move " << move << " walker " << i;
        const bool accept =
            dec_rng[static_cast<std::size_t>(i)].uniform() < std::exp(2.0 * lr_seq);
        if (accept) {
          ++accepted;
          seq[static_cast<std::size_t>(i)]->accept(iel);
          crowd.accept(i, iel);
        } else {
          seq[static_cast<std::size_t>(i)]->reject(iel);
          crowd.reject(i, iel);
        }
      }
    }
    EXPECT_GT(accepted, 0);
    for (int i = 0; i < kWalkers; ++i)
      EXPECT_EQ(seq[static_cast<std::size_t>(i)]->log_psi(),
                crowd.walker(i).log_psi())
          << "walker " << i;
  }
};

template <typename T>
class WavefunctionCrowdTest : public ::testing::Test
{
};

using CrowdRealTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(WavefunctionCrowdTest, CrowdRealTypes);

} // namespace

TYPED_TEST(WavefunctionCrowdTest, LockStepMatchesSequentialBitForBit)
{
  CrowdWfHarness<TypeParam> h;
  h.run_equivalence();
}

TYPED_TEST(WavefunctionCrowdTest, InnerTeamKeepsLockStepBitForBit)
{
  // The crowd's inner team parallelizes its batched value requests, which is
  // work distribution only, so the chain stays bit-identical to the
  // sequential per-walker loop in both precisions.
  CrowdWfHarness<TypeParam> h;
  h.run_equivalence(TeamHandle::of(2));
}
