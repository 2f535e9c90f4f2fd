// job_service: many small QMC jobs on a resident population.
//
// A WalkerPopulation of the vmc_graphite system with 3 shards, each served
// by one JobQueue worker at the library's default max_pack, and one client
// thread running a closed loop that keeps 2 x shards x max_pack jobs in
// flight.  Each job has 2 walkers; step budgets cycle through 1-3 and job
// seeds derive from the workload seed.  The client waits for its oldest job
// first, so a job's latency is submit to the client holding its result.
// Threads are pinned: the client on cpu 0, the workers on cpus 1..3.
//
// Untimed: one service start and a warm-up, then several fresh service
// starts whose median is the set-up time, then a short warm-up on the last.
// Checks: every job returns ok, and the timed window's first job, which
// carries the population's own seed, matches a standalone run_miniqmc bit
// for bit.  The traced run adds a span per job, the population build, jobs
// sent into an idle queue, and a shadow build of one job's walkers.
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>

#include "bench.h"
#include "graphite.h"
#include "qmc/job_queue.h"
#include "qmc/walker_population.h"
#include "shadow.h"

namespace perfbench {
namespace {

using namespace mqc;

constexpr int kShards = 3;
constexpr int kDefaultMaxPack = 4; ///< JobQueue's default max_pack (qmc/job_queue.h)
constexpr int kInFlight = 2 * kShards * kDefaultMaxPack;
constexpr int kJobWalkers = 2;
constexpr int kSetupStarts = 5;
constexpr double kWarmupSeconds = 1.5;
constexpr double kRewarmSeconds = 1.0;
constexpr int kIdleJobs = 5;

/// A started service: the population and its queue, whose new worker
/// threads are pinned to cpus 1, 2, ... (the client stays on cpu 0).  Members
/// are destroyed in reverse order, so the queue joins its workers before the
/// population they serve goes away; not movable, so no assignment can break
/// that order.
struct Service
{
  explicit Service(const PopulationConfig& pc)
      : pop(std::make_unique<WalkerPopulation>(pc))
  {
    const std::vector<pid_t> before = thread_ids();
    queue = std::make_unique<JobQueue>(*pop);
    for (const pid_t tid : thread_ids())
      if (!std::binary_search(before.begin(), before.end(), tid))
        workers.push_back(tid);
    const int ncpu = online_cpus();
    for (std::size_t i = 0; i < workers.size(); ++i)
      pinned = pin_tid(workers[i], static_cast<int>(1 + i) % ncpu) && pinned;
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::unique_ptr<WalkerPopulation> pop;
  std::unique_ptr<JobQueue> queue;
  std::vector<pid_t> workers; ///< kernel ids of the queue's worker threads
  bool pinned = true;
};

PopulationConfig population_config(std::uint64_t seed)
{
  PopulationConfig pc;
  pc.qmc = graphite_config(seed);
  pc.qmc.num_walkers = kShards; // one resident walker per shard
  pc.num_shards = kShards;
  return pc;
}

JobSpec job_spec(std::uint64_t seed, std::uint64_t k)
{
  JobSpec spec;
  spec.num_walkers = kJobWalkers;
  spec.steps = 1 + static_cast<int>(k % 3);
  spec.seed = mix_seed(seed, k);
  return spec;
}

struct Pending
{
  std::uint64_t id;
  std::int64_t submit_ns;
  JobSpec spec;
};

/// What a closed-loop phase observed.
struct Phase
{
  std::uint64_t jobs = 0;       ///< results collected inside the window
  std::uint64_t failed = 0;     ///< of those, results that were not ok
  std::uint64_t moves = 0;      ///< walkers x electrons x steps over collected jobs
  double window_s = 0.0;        ///< start to the last collected result
  std::vector<double> latency_ms;
  std::size_t completed0 = 0, completed1 = 0, batches0 = 0, batches1 = 0;
  JobResult own_seed;           ///< the first job of the phase (when it carries the pool seed)
  int own_seed_steps = 0;
};

bool job_ok(const JobResult& r)
{
  if (!r.ok || r.walker_accepts.size() != static_cast<std::size_t>(kJobWalkers) ||
      r.walker_log_det.size() != static_cast<std::size_t>(kJobWalkers))
    return false;
  for (const double ld : r.walker_log_det)
    if (!std::isfinite(ld))
      return false;
  return true;
}

/// Run the closed loop for @p seconds, keeping kInFlight jobs submitted and
/// collecting the oldest first; drains every job before returning.  Job k of
/// the phase is job_spec(seed, first_job + k), so the job sequence is a
/// function of the seed alone; with @p own_seed the first job carries the
/// population seed.
Phase closed_loop(Service& svc, std::uint64_t seed, std::uint64_t first_job, double seconds,
                  int nel, bool own_seed, Tracer* tr)
{
  Phase ph;
  std::deque<Pending> flight;
  std::uint64_t next_job = first_job;
  auto submit = [&] {
    JobSpec spec = job_spec(seed, next_job++);
    if (own_seed && ph.own_seed_steps == 0) { // the phase's first job
      spec.seed = seed;
      ph.own_seed_steps = spec.steps;
    }
    const std::int64_t t = now_ns();
    flight.push_back({svc.queue->submit(spec), t, spec});
  };
  ph.completed0 = svc.queue->completed();
  ph.batches0 = svc.queue->packed_batches();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last = t0;
  while (static_cast<int>(flight.size()) < kInFlight)
    submit();
  bool first = true;
  while (!flight.empty()) {
    const Pending p = flight.front();
    flight.pop_front();
    JobResult r = svc.queue->wait(p.id);
    const std::int64_t done = now_ns();
    if (done <= deadline) {
      ++ph.jobs;
      ph.failed += job_ok(r) ? 0 : 1;
      ph.moves += static_cast<std::uint64_t>(p.spec.num_walkers) * static_cast<std::uint64_t>(nel) *
                  static_cast<std::uint64_t>(p.spec.steps);
      ph.latency_ms.push_back(static_cast<double>(done - p.submit_ns) * 1e-6);
      last = done;
      if (tr)
        tr->add("qmc.service.job", p.submit_ns, done, static_cast<std::uint32_t>(p.id));
      submit();
    }
    if (first && own_seed)
      ph.own_seed = std::move(r);
    first = false;
  }
  ph.window_s = static_cast<double>(last - t0) * 1e-9;
  ph.completed1 = svc.queue->completed();
  ph.batches1 = svc.queue->packed_batches();
  return ph;
}

bool fingerprints_match(const JobResult& job, const MiniQMCResult& solo)
{
  if (job.walker_accepts != solo.walker_accepts ||
      job.walker_log_det.size() != solo.walker_log_det.size())
    return false;
  return std::memcmp(job.walker_log_det.data(), solo.walker_log_det.data(),
                     job.walker_log_det.size() * sizeof(double)) == 0;
}

} // namespace

int run_job_service(const Args& args)
{
  Report rep;
  record_host(rep, args);
  pin_current_thread(0);
  const PopulationConfig pc = population_config(args.seed);
  // Disjoint job-index ranges per phase (see closed_loop).
  constexpr std::uint64_t kWarmupJobs = 0, kRewarmJobs = 1u << 20, kTimedJobs = 2u << 20,
                          kIdleJobIndex = 3u << 20;
  int nel = 0;

  // Warm-up service: the first multi-threaded work of a fresh process runs
  // several times slower, and so would a set-up measured before it.
  {
    Service warm(pc);
    nel = warm.pop->result().num_electrons;
    closed_loop(warm, args.seed, kWarmupJobs, kWarmupSeconds, nel, false, nullptr);
  }
  std::vector<double> setup_s;
  std::optional<Service> started;
  for (int i = 0; i < kSetupStarts; ++i) {
    started.reset();
    const double t0 = now_s();
    started.emplace(pc);
    setup_s.push_back(now_s() - t0);
  }
  Service& svc = *started;
  closed_loop(svc, args.seed, kRewarmJobs, kRewarmSeconds, nel, false, nullptr);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) {
    tracer = std::make_unique<Tracer>(1);
    tracer->register_thread(0, 1 << 16);
  }
  const CpuTimes cpu0 = read_cpu_times();
  Phase ph = closed_loop(svc, args.seed, kTimedJobs, args.seconds, nel, true, tracer.get());
  record_cpu_share(rep, "window_", cpu0, read_cpu_times());

  // ---- guards: the mechanism engaged -----------------------------------------
  const MiniQMCResult pr = svc.pop->result();
  record_paths(rep, pr);
  const double packing = ph.batches1 > ph.batches0
                             ? static_cast<double>(ph.completed1 - ph.completed0) /
                                   static_cast<double>(ph.batches1 - ph.batches0)
                             : 0.0;
  rep.record("shards", svc.pop->num_shards());
  rep.record("workers", svc.queue->num_workers());
  rep.record("jobs_in_flight", kInFlight);
  rep.record("max_pack", kDefaultMaxPack);
  rep.record("packing_factor", packing);
  rep.record("latency_samples", static_cast<double>(ph.latency_ms.size()));
  rep.record("threads", fmt("client cpu 0 + %zu workers pinned to cpus 1..%zu", svc.workers.size(),
                            svc.workers.size()));
  rep.guard("three_shards_three_workers",
            svc.pop->num_shards() == kShards && svc.queue->num_workers() == kShards &&
                static_cast<int>(svc.workers.size()) == kShards && svc.pinned &&
                kShards + 1 <= online_cpus(),
            fmt("%d shards, %d workers, %zu pinned worker threads + 1 client, nproc %d",
                svc.pop->num_shards(), svc.queue->num_workers(), svc.workers.size(),
                online_cpus()));
  rep.guard("packing_engaged", packing > 1.0, fmt("%.3f jobs per crowd sweep", packing));
  rep.guard("spline_path_multi_position", pr.spline_path == EvalPath::MultiPosition,
            pr.spline_path == EvalPath::MultiPosition ? "multi-position" : "single-position");
  rep.guard("precision_path_native", pr.precision_path == PrecisionPath::Native,
            precision_path_name(pr.precision_path));
  rep.guard("enough_latency_samples", ph.latency_ms.size() >= 100,
            fmt("%zu jobs collected in the window (p90 needs 100)", ph.latency_ms.size()));

  // ---- checks: every job ok; the population-seed job matches run_miniqmc ----
  MiniQMCConfig solo_cfg = graphite_config(args.seed);
  solo_cfg.num_walkers = kJobWalkers;
  solo_cfg.steps = ph.own_seed_steps;
  const MiniQMCResult solo = run_miniqmc(solo_cfg);
  const bool own_match = job_ok(ph.own_seed) && fingerprints_match(ph.own_seed, solo);
  rep.add_attempted(ph.jobs + 1);
  rep.add_failed(ph.failed + (own_match ? 0 : 1));
  rep.check("jobs_ok", ph.failed == 0,
            fmt("%llu of %llu jobs not ok", static_cast<unsigned long long>(ph.failed),
                static_cast<unsigned long long>(ph.jobs)));
  rep.check("own_seed_job_matches_run_miniqmc", own_match,
            fmt("%d-walker %d-step job with the population seed vs standalone run_miniqmc, "
                "bit for bit",
                kJobWalkers, ph.own_seed_steps));

  const double jobs_per_s = ph.window_s > 0 ? static_cast<double>(ph.jobs) / ph.window_s : 0.0;
  // Orbital values per job step: one VGH and one VGL per electron and the
  // quadrature V batch, each over every orbital (the crowd sweep's count).
  const double evals_per_move = static_cast<double>(pr.num_orbitals) *
                                (2.0 + static_cast<double>(pc.qmc.quadrature_points));
  if (!args.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("evals_per_s", static_cast<double>(ph.moves) * evals_per_move / ph.window_s, "1/s");
    rep.metric("moves_per_s", static_cast<double>(ph.moves) / ph.window_s, "1/s");
    rep.metric("jobs_per_s", jobs_per_s, "1/s");
    rep.metric("job_p50_ms", quantile(ph.latency_ms, 0.5), "ms");
    rep.metric("job_p90_ms", quantile(ph.latency_ms, 0.9), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    std::string starts;
    for (const double s : setup_s)
      starts += fmt("%s%.4f", starts.empty() ? "" : ",", s);
    rep.record("setup_starts_s", starts);
    return rep.finish(args);
  }

  // ---- traced run ---------------------------------------------------------------
  Tracer& tr = *tracer;
  std::vector<double> idle_ms;
  for (int i = 0; i < kIdleJobs; ++i) {
    JobSpec spec = job_spec(args.seed, kIdleJobIndex + static_cast<std::uint64_t>(i));
    spec.steps = 2;
    const std::int64_t t0 = now_ns();
    const JobResult r = svc.queue->wait(svc.queue->submit(spec));
    const std::int64_t t1 = now_ns();
    tr.add("qmc.service.idle_job", t0, t1, static_cast<std::uint32_t>(r.id));
    idle_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  }
  started.reset();
  {
    const std::int64_t t0 = now_ns();
    const Service rebuilt(pc);
    tr.add("qmc.service.population_build", t0, now_ns(), 0);
  }

  // Shadow build of one job's walkers through the public layer APIs.
  const ShadowSystem sys(solo_cfg);
  std::vector<ShadowWalker> walkers(kJobWalkers);
  std::vector<double> det_ms, dist_ms;
  std::uint64_t build_failed = 0;
  for (int w = 0; w < kJobWalkers; ++w) {
    const BuildTimes bt = build_walker(walkers[static_cast<std::size_t>(w)], sys, w, &tr);
    det_ms.push_back(bt.determinant_s * 1e3);
    dist_ms.push_back(bt.distance_s * 1e3);
    build_failed += walkers[static_cast<std::size_t>(w)].build_ok ? 0 : 1;
  }
  rep.layer("determinant.build_ms", median(det_ms));
  rep.layer("determinant.build_failed", static_cast<double>(build_failed));
  rep.layer("distance.evaluate_ms", median(dist_ms));
  rep.layer("qmc.service.jobs", static_cast<double>(ph.jobs));
  rep.layer("qmc.service.jobs_failed", static_cast<double>(ph.failed));
  rep.layer("qmc.service.batches", static_cast<double>(ph.batches1 - ph.batches0));
  rep.layer("qmc.service.packing_factor", packing);
  rep.layer("qmc.service.idle_job_ms", median(idle_ms));
  // Every shard holds a first-touch copy of the table (computed from the
  // system's table size; the population does not expose its replicas).
  rep.layer("qmc.service.replica_bytes", static_cast<double>(kShards) *
                                             static_cast<double>(sys.coefs->size_bytes()));
  rep.layer("core.kernel.table_bytes", static_cast<double>(sys.engine->coef_bytes()));

  report_ceilings(rep);
  report_trace(rep, args, tr, ph.window_s);
  return rep.finish(args);
}

} // namespace perfbench
