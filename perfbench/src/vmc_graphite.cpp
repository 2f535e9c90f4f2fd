// vmc_graphite: the paper's section VII miniQMC, end to end.
//
// run_miniqmc with the crowd driver, the AoSoA engine and the optimized
// distance tables and Jastrow on graphite 4x4x1 (256 electrons, 128
// orbitals) over the 48^3 grid: 8 walkers in crowds of 2, so the driver forks
// exactly 4 crowds and the inner team resolves to 1.  Each call is one job:
// it builds its own system (set-up = wall time - MiniQMCResult::seconds) and
// sweeps a fixed number of steps from the workload seed.  Untimed warm-up
// calls come first; the timed calls repeat the same seed and length, so
// their trajectory fingerprints must match each other exactly.
//
// The traced run adds one span around a run_miniqmc call and a shadow crowd
// sweep driven through the public layer APIs (shadow.h).
#include <cmath>
#include <cstring>

#include <memory>
#include <thread>

#include "bench.h"
#include "graphite.h"
#include "qmc/miniqmc_driver.h"
#include "shadow.h"

namespace perfbench {
namespace {

using namespace mqc;

constexpr int kSteps = 5;            ///< Monte Carlo steps per call
constexpr int kMinTimedCalls = 5;
constexpr int kWarmupCalls = 2;
constexpr double kWarmupSeconds = 1.5;

struct Call
{
  double wall_s = 0.0;
  MiniQMCResult result;
};

Call timed_call(const MiniQMCConfig& cfg)
{
  Call c;
  const double t0 = now_s();
  c.result = run_miniqmc(cfg);
  c.wall_s = now_s() - t0;
  return c;
}

bool same_trajectory(const MiniQMCResult& a, const MiniQMCResult& b)
{
  if (a.walker_accepts != b.walker_accepts || a.walker_log_det.size() != b.walker_log_det.size())
    return false;
  for (std::size_t i = 0; i < a.walker_log_det.size(); ++i)
    if (std::memcmp(&a.walker_log_det[i], &b.walker_log_det[i], sizeof(double)) != 0)
      return false;
  return true;
}

/// Output checks of one call; returns true when all hold.
bool call_ok(const MiniQMCResult& r, const MiniQMCConfig& cfg, std::string& why)
{
  const std::size_t expect = static_cast<std::size_t>(cfg.num_walkers) *
                             static_cast<std::size_t>(r.num_electrons) *
                             static_cast<std::size_t>(cfg.steps);
  if (r.moves_attempted != expect) {
    why = fmt("moves_attempted %zu != walkers x electrons x steps %zu", r.moves_attempted, expect);
    return false;
  }
  if (!(r.acceptance_ratio > 0.0 && r.acceptance_ratio < 1.0)) {
    why = fmt("acceptance %.6f outside (0, 1)", r.acceptance_ratio);
    return false;
  }
  for (const double ld : r.walker_log_det)
    if (!std::isfinite(ld)) {
      why = "non-finite walker_log_det";
      return false;
    }
  return true;
}

struct ShadowRun
{
  std::vector<ShadowWalker> walkers;
  double build_s = 0.0; ///< wall time of the walker builds (all crowds)
  double sweep_s = 0.0; ///< wall time of the sweep (all crowds)
  std::vector<BuildTimes> builds;
};

/// Build and sweep every walker of @p sys in the driver's crowd shape, one
/// pinned thread per crowd; @p tr (may be null) gets one buffer per crowd.
ShadowRun run_shadow(const ShadowSystem& sys, Tracer* tr)
{
  const MiniQMCConfig& cfg = sys.cfg;
  const int crowds = cfg.num_walkers / cfg.crowd_size;
  ShadowRun run;
  run.walkers.resize(static_cast<std::size_t>(cfg.num_walkers));
  run.builds.resize(run.walkers.size());
  auto phase = [&](auto&& body) {
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (int c = 0; c < crowds; ++c)
      threads.emplace_back([&, c] {
        pin_current_thread(c % online_cpus());
        if (tr)
          tr->register_thread(c, 1 << 18);
        body(c);
      });
    for (auto& t : threads)
      t.join();
    return now_s() - t0;
  };
  run.build_s = phase([&](int c) {
    for (int i = 0; i < cfg.crowd_size; ++i) {
      const int wid = c * cfg.crowd_size + i;
      run.builds[static_cast<std::size_t>(wid)] =
          build_walker(run.walkers[static_cast<std::size_t>(wid)], sys, wid, tr);
    }
  });
  run.sweep_s = phase([&](int c) {
    shadow_sweep(sys, run.walkers, c * cfg.crowd_size, cfg.crowd_size, cfg.steps, tr);
  });
  return run;
}

bool shadow_matches(const ShadowRun& run, const MiniQMCResult& r)
{
  if (run.walkers.size() != r.walker_accepts.size())
    return false;
  for (std::size_t i = 0; i < run.walkers.size(); ++i) {
    const ShadowWalker& w = run.walkers[i];
    const double ld = w.det_up.log_det() + w.det_dn.log_det();
    if (w.accepted != r.walker_accepts[i] ||
        std::memcmp(&ld, &r.walker_log_det[i], sizeof(double)) != 0)
      return false;
  }
  return true;
}

} // namespace

int run_vmc_graphite(const Args& args)
{
  Report rep;
  record_host(rep, args);
  MiniQMCConfig cfg = graphite_config(args.seed);
  cfg.steps = kSteps;
  rep.record("steps_per_call", cfg.steps);
  rep.record("walkers", cfg.num_walkers);
  rep.record("crowd_size", cfg.crowd_size);

  // Warm-up with the workload's own calls: the first multi-threaded call of
  // a fresh process runs several times slower.
  std::vector<Call> calls;
  const double warm0 = now_s();
  while (static_cast<int>(calls.size()) < kWarmupCalls || now_s() - warm0 < kWarmupSeconds)
    calls.push_back(timed_call(cfg));
  const std::size_t first_timed = calls.size();

  const CpuTimes cpu0 = read_cpu_times();
  const double t0 = now_s();
  while (static_cast<int>(calls.size() - first_timed) < kMinTimedCalls ||
         now_s() - t0 < args.seconds)
    calls.push_back(timed_call(cfg));
  rep.record("window_s", now_s() - t0);
  record_cpu_share(rep, "window_", cpu0, read_cpu_times());

  // ---- checks and guards over every call -----------------------------------
  std::uint64_t failed = 0;
  std::string first_why;
  for (const Call& c : calls) {
    std::string why;
    const bool ok = call_ok(c.result, cfg, why) && same_trajectory(c.result, calls.front().result);
    if (!ok) {
      ++failed;
      if (first_why.empty())
        first_why = why.empty() ? "trajectory differs from the first call" : why;
    }
  }
  rep.add_attempted(calls.size());
  rep.add_failed(failed);
  rep.check("calls_reproduce_and_hold", failed == 0,
            failed == 0 ? fmt("%zu calls: moves = walkers x electrons x steps, acceptance in (0,1), "
                              "finite log dets, identical fingerprints",
                              calls.size())
                        : fmt("%llu of %zu calls failed: %s",
                              static_cast<unsigned long long>(failed), calls.size(),
                              first_why.c_str()));
  const MiniQMCResult& r0 = calls.front().result;
  record_paths(rep, r0);
  rep.guard("spline_path_multi_position", r0.spline_path == EvalPath::MultiPosition,
            r0.spline_path == EvalPath::MultiPosition ? "multi-position" : "single-position");
  rep.guard("precision_path_native", r0.precision_path == PrecisionPath::Native,
            precision_path_name(r0.precision_path));
  rep.guard("four_crowds_inner_one",
            r0.outer_threads_used == 4 && r0.inner_threads_used == 1 &&
                r0.outer_threads_used * r0.inner_threads_used <= online_cpus(),
            fmt("outer %d x inner %d (%s), nproc %d", r0.outer_threads_used, r0.inner_threads_used,
                team_path_name(r0.team_path), online_cpus()));

  std::vector<double> setup, moves, evals, wall_ms;
  for (std::size_t i = first_timed; i < calls.size(); ++i) {
    const Call& c = calls[i];
    setup.push_back(c.wall_s - c.result.seconds);
    moves.push_back(static_cast<double>(c.result.moves_attempted) / c.result.seconds);
    evals.push_back(static_cast<double>(c.result.spline_orbital_evals) / c.result.seconds);
    wall_ms.push_back(c.wall_s * 1e3);
  }
  rep.record("timed_calls", static_cast<double>(wall_ms.size()));
  rep.record("acceptance", r0.acceptance_ratio);
  if (!args.trace) {
    rep.metric("setup_s", median(setup), "s");
    rep.metric("evals_per_s", median(evals), "1/s");
    rep.metric("moves_per_s", median(moves), "1/s");
    // One client waiting on each call: calls per second is the reciprocal
    // of the call time, taken at the median so one stalled call moves it little.
    rep.metric("jobs_per_s", 1e3 / quantile(wall_ms, 0.5), "1/s");
    rep.metric("job_p50_ms", quantile(wall_ms, 0.5), "ms");
    rep.metric("job_p90_ms", quantile(wall_ms, 0.9), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return rep.finish(args);
  }

  // ---- traced run: one driver call beside a shadow sweep --------------------
  const int crowds = cfg.num_walkers / cfg.crowd_size;
  Tracer tracer(crowds + 1);
  tracer.register_thread(crowds, 16);
  MiniQMCResult driver;
  {
    ScopedSpan s(&tracer, "qmc.driver", 0);
    driver = run_miniqmc(cfg);
  }
  const ShadowSystem sys(cfg);
  const ShadowRun plain = run_shadow(sys, nullptr);
  const ShadowRun traced = run_shadow(sys, &tracer);
  const bool match = shadow_matches(plain, driver) && shadow_matches(traced, driver);
  rep.add_attempted(1);
  rep.add_failed(match ? 0 : 1);
  rep.check("shadow_matches_driver", match,
            "shadow sweep accept counts and log dets vs run_miniqmc, bit for bit");
  rep.record("shadow_untraced_s", plain.build_s + plain.sweep_s);
  rep.record("shadow_traced_s", traced.build_s + traced.sweep_s);

  const Tracer::Totals root = tracer.totals("qmc.sweep");
  const double share_base = root.total_s;
  std::uint64_t shadow_moves = 0, accepted = 0, build_failed = 0;
  std::vector<double> det_ms, dist_ms;
  for (std::size_t i = 0; i < traced.walkers.size(); ++i) {
    shadow_moves += traced.walkers[i].attempted;
    accepted += traced.walkers[i].accepted;
    build_failed += traced.walkers[i].build_ok ? 0 : 1;
    det_ms.push_back(traced.builds[i].determinant_s * 1e3);
    dist_ms.push_back(traced.builds[i].distance_s * 1e3);
  }
  const Tracer::Totals facade = tracer.totals_prefix("core.facade.");
  rep.layer("core.facade.calls", static_cast<double>(facade.calls));
  rep.layer("core.facade.self_s", facade.self_s);
  rep.layer("core.facade.share", share_base > 0 ? facade.self_s / share_base : 0.0);
  double layers_self = facade.self_s;
  for (const char* name : {"distance", "jastrow", "determinant"}) {
    const Tracer::Totals t = tracer.totals(name);
    layers_self += t.self_s;
    const std::string n = name;
    rep.layer(n + ".calls", static_cast<double>(t.calls));
    rep.layer(n + ".self_s", t.self_s);
    rep.layer(n + ".ns_per_call", t.calls ? t.self_s * 1e9 / static_cast<double>(t.calls) : 0.0);
    rep.layer(n + ".share", share_base > 0 ? t.self_s / share_base : 0.0);
  }
  rep.layer("determinant.accept_frac",
            shadow_moves ? static_cast<double>(accepted) / static_cast<double>(shadow_moves) : 0.0);
  rep.layer("determinant.build_ms", median(det_ms));
  rep.layer("determinant.build_failed", static_cast<double>(build_failed));
  rep.layer("distance.evaluate_ms", median(dist_ms));
  rep.layer("qmc.sweep.moves", static_cast<double>(shadow_moves));
  rep.layer("qmc.sweep.self_s", root.self_s);
  rep.layer("qmc.sweep.share", share_base > 0 ? root.self_s / share_base : 0.0);
  layers_self += root.self_s;
  // Layer self times plus the sweep's own bookkeeping cover the root spans;
  // against crowds x sweep wall the remainder is imbalance between crowds.
  const double accounted = traced.sweep_s > 0 ? layers_self / (crowds * traced.sweep_s) : 0.0;
  rep.record("sweep_self_sum_s", layers_self);
  rep.record("sweep_root_sum_s", root.total_s);
  rep.record("sweep_accounted_frac", accounted);
  rep.check("layers_account_for_sweep", accounted > 0.5 && accounted < 1.01,
            fmt("layer self times + qmc.sweep.self_s = %.4f s of %d crowds x %.4f s sweep wall "
                "(%.3f)",
                layers_self, crowds, traced.sweep_s, accounted));
  const Tracer::Totals drv = tracer.totals("qmc.driver");
  rep.record("driver_wall_s", drv.total_s);
  rep.layer("qmc.driver.sweep_s", driver.seconds);
  const double shadow_s = plain.build_s + plain.sweep_s;
  rep.layer("qmc.driver.overhead_frac", shadow_s > 0 ? driver.seconds / shadow_s - 1.0 : 0.0);
  rep.layer("core.kernel.table_bytes", static_cast<double>(sys.engine->coef_bytes()));

  report_ceilings(rep);
  report_trace(rep, args, tracer, crowds * (traced.build_s + traced.sweep_s));
  return rep.finish(args);
}

} // namespace perfbench
