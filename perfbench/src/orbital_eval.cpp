// orbital_eval: the paper's B-spline kernel benchmark at production size.
//
// A MultiBspline<float> table of N = 4096 random orbitals on the 48^3 grid
// (2.17 GB, several times the last-level cache) sits behind the OrbitalSet
// facade with the library's default tile size.  One crowd per pinned thread
// runs a closed loop of the crowd driver's per-electron request mix: one VGH
// request and one VGL request for the crowd's positions and one V request for
// its quadrature points, positions drawn uniformly from the workload seed.
//
// Untimed: three fresh table builds (set-up time is their median), then a
// warm-up with the same request loop.  Timed: the request loop for the run
// length.  Checks: every output is finite, a seeded sample of outputs matches
// the scalar BsplineRef, and the tiled copy matches the table it was split
// from.  The traced run pairs every facade request with the same request sent
// straight to the engine's multi-position kernels.
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/aligned_allocator.h"
#include "common/rng.h"
#include "core/bspline_ref.h"
#include "core/multi_bspline.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"
#include "perf/roofline.h"
#include "qmc/miniqmc_driver.h"

namespace perfbench {
namespace {

using namespace mqc;

constexpr int kNumSplines = 4096;
constexpr int kGrid = 48;
constexpr float kLength = 1.0f;
constexpr int kCrowd = 2;             ///< walkers per crowd (vmc_graphite's crowd shape)
constexpr int kBuilds = 3;            ///< fresh table builds; setup_s is their median
constexpr double kWarmupSeconds = 2.0;
constexpr std::uint64_t kSampleEvery = 97; ///< every k-th request mix of a crowd is sampled
constexpr int kMaxSamples = 8;        ///< sampled request mixes per crowd
constexpr double kRefTolerance = 2e-5; ///< max |out - ref| / max(1, max |ref|) per component
constexpr int kTableSpotChecks = 1 << 16;

enum Kind
{
  kV = 0,
  kVGL = 1,
  kVGH = 2
};
constexpr const char* kKindName[3] = {"v", "vgl", "vgh"};
constexpr const char* kFacadeSpan[3] = {"core.facade.v", "core.facade.vgl", "core.facade.vgh"};
constexpr const char* kKernelSpan[3] = {"core.kernel.v", "core.kernel.vgl", "core.kernel.vgh"};
constexpr int kComponents[3] = {1, 5, 10};

int quadrature_points() { return MiniQMCConfig{}.quadrature_points; }

struct Table
{
  std::shared_ptr<CoefStorage<float>> full;
  std::unique_ptr<MultiBspline<float>> engine;
};

Table build_table(std::uint64_t seed, int tile_size)
{
  Table t;
  t.full = make_random_storage<float>(Grid3D<float>::cube(kGrid, kLength), kNumSplines, seed);
  t.engine = std::make_unique<MultiBspline<float>>(*t.full, tile_size);
  return t;
}

/// One sampled output: the first position of a request, all components.
struct Sample
{
  Kind kind;
  Vec3<float> pos;
  std::vector<float> out; ///< kComponents[kind] streams of N values
};

/// One crowd: its positions, output slots, facade scratch and rng stream.
struct Crowd
{
  Crowd(std::size_t stride_, int nq_, std::uint64_t seed, int id)
      : stride(stride_), nq(nq_), v(kCrowd * stride_), g(3 * kCrowd * stride_),
        h(6 * kCrowd * stride_), l(kCrowd * stride_),
        qv(static_cast<std::size_t>(kCrowd * nq_) * stride_), pos(kCrowd),
        qpos(static_cast<std::size_t>(kCrowd * nq_)),
        rng(Xoshiro256::for_stream(seed, static_cast<std::uint64_t>(id)))
  {
    for (int i = 0; i < kCrowd; ++i) {
      vp.push_back(v.data() + i * stride);
      gp.push_back(g.data() + 3 * i * stride);
      hp.push_back(h.data() + 6 * i * stride);
      lp.push_back(l.data() + i * stride);
    }
    for (int i = 0; i < kCrowd * nq; ++i)
      qp.push_back(qv.data() + static_cast<std::size_t>(i) * stride);
    (void)res.weights_for(kCrowd * nq);
  }

  std::size_t stride;
  int nq;
  aligned_vector<float> v, g, h, l, qv;
  std::vector<float*> vp, gp, hp, lp, qp;
  std::vector<Vec3<float>> pos, qpos;
  OrbitalResource<float> res;
  Xoshiro256 rng;

  std::uint64_t unit_index = 0;  ///< request mixes issued so far
  std::int64_t last_end_ns = 0;  ///< completion time of the last counted request mix
  std::uint64_t units = 0;       ///< request mixes completed inside the window
  std::uint64_t nonfinite = 0;   ///< request mixes with a non-finite output
  /// Latencies (ms) of the counted request mixes, by completion second.
  std::vector<std::vector<double>> latency_by_second;
  std::vector<Sample> samples;
};

Vec3<float> draw(Xoshiro256& rng)
{
  return Vec3<float>{static_cast<float>(rng.uniform() * kLength),
                     static_cast<float>(rng.uniform() * kLength),
                     static_cast<float>(rng.uniform() * kLength)};
}

/// True when every value is finite: x * 0 is 0 for finite x and NaN otherwise.
bool all_finite(const float* p, std::size_t n)
{
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i)
    acc += p[i] * 0.0f;
  return acc == 0.0f;
}

OrbitalEvalRequest<float> make_request(Crowd& c, Kind k)
{
  OrbitalEvalRequest<float> rq;
  rq.stride = c.stride;
  switch (k) {
  case kV:
    rq.deriv = DerivLevel::V;
    rq.positions = c.qpos.data();
    rq.count = kCrowd * c.nq;
    rq.v = c.qp.data();
    break;
  case kVGL:
    rq.deriv = DerivLevel::VGL;
    rq.positions = c.pos.data();
    rq.count = kCrowd;
    rq.v = c.vp.data();
    rq.g = c.gp.data();
    rq.lh = c.lp.data();
    break;
  case kVGH:
    rq.deriv = DerivLevel::VGH;
    rq.positions = c.pos.data();
    rq.count = kCrowd;
    rq.v = c.vp.data();
    rq.g = c.gp.data();
    rq.lh = c.hp.data();
    break;
  }
  return rq;
}

/// The same request sent straight to the engine's multi-position kernels.
void direct_call(const MultiBspline<float>& e, const OrbitalEvalRequest<float>& rq)
{
  switch (rq.deriv) {
  case DerivLevel::V:
    e.evaluate_v_multi(rq.positions, rq.count, rq.v);
    break;
  case DerivLevel::VGL:
    e.evaluate_vgl_multi(rq.positions, rq.count, rq.v, rq.g, rq.lh, rq.stride);
    break;
  case DerivLevel::VGH:
    e.evaluate_vgh_multi(rq.positions, rq.count, rq.v, rq.g, rq.lh, rq.stride);
    break;
  }
}

bool outputs_finite(const Crowd& c, Kind k)
{
  const std::size_t n = c.stride;
  switch (k) {
  case kV:
    return all_finite(c.qv.data(), c.qv.size());
  case kVGL:
    return all_finite(c.v.data(), kCrowd * n) && all_finite(c.g.data(), 3 * kCrowd * n) &&
           all_finite(c.l.data(), kCrowd * n);
  case kVGH:
    return all_finite(c.v.data(), kCrowd * n) && all_finite(c.g.data(), 3 * kCrowd * n) &&
           all_finite(c.h.data(), 6 * kCrowd * n);
  }
  return false;
}

void take_sample(Crowd& c, Kind k)
{
  Sample s{k, k == kV ? c.qpos[0] : c.pos[0], {}};
  const std::size_t n = kNumSplines;
  auto append = [&](const float* p) { s.out.insert(s.out.end(), p, p + n); };
  if (k == kV) {
    append(c.qp[0]);
  } else {
    append(c.vp[0]);
    for (int q = 0; q < 3; ++q)
      append(c.gp[0] + q * c.stride);
    if (k == kVGL)
      append(c.lp[0]);
    else
      for (int q = 0; q < 6; ++q)
        append(c.hp[0] + q * c.stride);
  }
  c.samples.push_back(std::move(s));
}

/// One request mix: VGH at fresh positions, VGL at fresh positions, V at the
/// crowd's quadrature points.  With @p direct (traced run) each facade request
/// is paired with the identical direct engine request, alternating which one
/// runs first so neither always finds the other's cache lines.
bool request_mix(Crowd& c, const OrbitalSet<float>& spo, const MultiBspline<float>& engine,
                 Tracer* tr, bool direct, bool sample)
{
  const auto unit = static_cast<std::uint32_t>(c.unit_index);
  const bool direct_first = (c.unit_index & 1) != 0;
  bool finite = true;
  for (const Kind k : {kVGH, kVGL, kV}) {
    if (k == kV)
      for (auto& p : c.qpos)
        p = draw(c.rng);
    else
      for (auto& p : c.pos)
        p = draw(c.rng);
    const OrbitalEvalRequest<float> rq = make_request(c, k);
    if (direct && direct_first) {
      ScopedSpan s(tr, kKernelSpan[k], unit);
      direct_call(engine, rq);
    }
    {
      ScopedSpan s(tr, kFacadeSpan[k], unit);
      spo.evaluate(rq, c.res);
    }
    if (direct && !direct_first) {
      ScopedSpan s(tr, kKernelSpan[k], unit);
      direct_call(engine, rq);
    }
    finite = outputs_finite(c, k) && finite;
    if (sample)
      take_sample(c, k);
  }
  ++c.unit_index;
  return finite;
}

/// Run every crowd's closed loop on its own pinned thread for @p seconds.
/// Request mixes that end after the window are not counted; returns the
/// measured window, from the common start to the last counted completion.
double run_loop(std::vector<Crowd>& crowds, const OrbitalSet<float>& spo,
                const MultiBspline<float>& engine, double seconds, bool timed, Tracer* tr)
{
  const int n = static_cast<int>(crowds.size());
  std::atomic<int> ready{0};
  std::atomic<std::int64_t> start{0};
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      pin_current_thread(id);
      if (tr)
        tr->register_thread(id, 1 << 16);
      Crowd& c = crowds[static_cast<std::size_t>(id)];
      ready.fetch_add(1);
      std::int64_t t0;
      while ((t0 = start.load()) == 0) {
      }
      const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
      while (true) {
        const std::int64_t a = now_ns();
        if (a >= deadline)
          break;
        const bool sample = timed && c.unit_index % kSampleEvery == 0 &&
                            c.samples.size() < 3 * static_cast<std::size_t>(kMaxSamples);
        bool finite;
        {
          ScopedSpan root(tr, "orbital_eval.request_mix", static_cast<std::uint32_t>(c.unit_index));
          finite = request_mix(c, spo, engine, tr, tr != nullptr, sample);
        }
        const std::int64_t b = now_ns();
        if (!timed || b > deadline)
          continue;
        ++c.units;
        c.last_end_ns = b;
        const auto sec = static_cast<std::size_t>((b - t0) / 1000000000);
        if (c.latency_by_second.size() <= sec)
          c.latency_by_second.resize(sec + 1);
        c.nonfinite += finite ? 0 : 1;
        c.latency_by_second[sec].push_back(static_cast<double>(b - a) * 1e-6);
      }
    });
  }
  while (ready.load() < n) {
  }
  const std::int64_t t0 = now_ns();
  start.store(t0);
  for (auto& t : threads)
    t.join();
  std::int64_t last = t0;
  for (const Crowd& c : crowds)
    last = std::max(last, c.last_end_ns);
  return static_cast<double>(last - t0) * 1e-9;
}

/// Compare the sampled outputs with the scalar reference evaluated on the
/// engine's own tiles; returns the number of samples outside tolerance and
/// the worst relative error seen.
int reference_check(const std::vector<Crowd>& crowds, const MultiBspline<float>& engine,
                    double& worst, int& checked)
{
  int bad = 0;
  worst = 0.0;
  checked = 0;
  for (const Crowd& c : crowds) {
    for (const Sample& s : c.samples) {
      const int nc = kComponents[s.kind];
      std::vector<std::vector<double>> ref(static_cast<std::size_t>(nc),
                                           std::vector<double>(kNumSplines, 0.0));
      for (int t = 0; t < engine.num_tiles(); ++t) {
        const BsplineRef<float> r(engine.tile(t).coefs());
        const std::size_t off = engine.tile_offset(t);
        auto put = [&](int q, const std::vector<double>& vals) {
          for (std::size_t n = 0; n < vals.size(); ++n)
            ref[static_cast<std::size_t>(q)][off + n] = vals[n];
        };
        if (s.kind == kV) {
          put(0, r.evaluate_v(s.pos.x, s.pos.y, s.pos.z));
          continue;
        }
        const RefVGH x = r.evaluate_vgh(s.pos.x, s.pos.y, s.pos.z);
        put(0, x.v);
        put(1, x.gx);
        put(2, x.gy);
        put(3, x.gz);
        if (s.kind == kVGL) {
          std::vector<double> lap(x.v.size());
          for (std::size_t n = 0; n < lap.size(); ++n)
            lap[n] = x.hxx[n] + x.hyy[n] + x.hzz[n];
          put(4, lap);
        } else {
          put(4, x.hxx);
          put(5, x.hxy);
          put(6, x.hxz);
          put(7, x.hyy);
          put(8, x.hyz);
          put(9, x.hzz);
        }
      }
      double err = 0.0;
      for (int q = 0; q < nc; ++q) {
        const auto& rq = ref[static_cast<std::size_t>(q)];
        double scale = 1.0, diff = 0.0;
        for (int n = 0; n < kNumSplines; ++n) {
          scale = std::max(scale, std::abs(rq[static_cast<std::size_t>(n)]));
          diff = std::max(diff, std::abs(static_cast<double>(
                                             s.out[static_cast<std::size_t>(q) * kNumSplines +
                                                   static_cast<std::size_t>(n)]) -
                                         rq[static_cast<std::size_t>(n)]));
        }
        err = std::max(err, diff / scale);
      }
      worst = std::max(worst, err);
      ++checked;
      bad += (err <= kRefTolerance) ? 0 : 1;
    }
  }
  return bad;
}

/// Exact comparison of seeded entries of the tiled copy with the table it
/// was split from; returns the number of mismatches.
int table_spot_check(const Table& t, std::uint64_t seed)
{
  Xoshiro256 rng(mix_seed(seed, 0x7ab1e));
  const int tile = t.engine->tile_size();
  int bad = 0;
  for (int s = 0; s < kTableSpotChecks; ++s) {
    const int i = static_cast<int>(rng() % (kGrid + 3));
    const int j = static_cast<int>(rng() % (kGrid + 3));
    const int k = static_cast<int>(rng() % (kGrid + 3));
    const int n = static_cast<int>(rng() % kNumSplines);
    const float a = t.full->coef(i, j, k, n);
    const float b = t.engine->tile(n / tile).coefs().coef(i, j, k, n % tile);
    bad += (a == b) ? 0 : 1;
  }
  return bad;
}

void record_engine(Report& rep, const Table& t, const OrbitalSet<float>& spo, int threads)
{
  const OrbitalCapabilities caps = spo.capabilities();
  const std::size_t table = t.engine->coef_bytes();
  const std::size_t llc = llc_bytes();
  rep.record("table_bytes", static_cast<double>(table));
  rep.record("tile_size", t.engine->tile_size());
  rep.record("num_tiles", t.engine->num_tiles());
  const char* spline_path = caps.native_multi_eval ? "multi-position" : "single-position";
  rep.record("spline_path", spline_path);
  rep.record("precision_path", precision_path_name(caps.precision));
  rep.record("team_path", "flat");
  rep.record("outer_x_inner", fmt("%dx1", threads));
  rep.record("crowd_size", kCrowd);
  rep.guard("table_exceeds_4x_llc", llc > 0 && table >= 4 * llc,
            fmt("table %zu B vs last-level cache %zu B (%.2fx)", table, llc,
                llc ? static_cast<double>(table) / static_cast<double>(llc) : 0.0));
  rep.guard("default_tile_size", t.engine->tile_size() == MiniQMCConfig{}.tile_size &&
                                     t.engine->num_tiles() > 1,
            fmt("tile_size %d over %d tiles", t.engine->tile_size(), t.engine->num_tiles()));
  rep.guard("spline_path_multi_position", caps.native_multi_eval, spline_path);
  rep.guard("precision_path_native", caps.precision == PrecisionPath::Native,
            precision_path_name(caps.precision));
  rep.guard("threads_within_nproc", threads >= 1 && threads <= online_cpus(),
            fmt("%d crowds on %d pinned threads, nproc %d", threads, threads, online_cpus()));
}

} // namespace

int run_orbital_eval(const Args& args)
{
  Report rep;
  record_host(rep, args);
  const int tile_size = MiniQMCConfig{}.tile_size;
  const int nq = quadrature_points();
  const int threads = online_cpus();
  const double evals_per_mix = static_cast<double>(kNumSplines) * (2 * kCrowd + kCrowd * nq);

  std::vector<double> build_s;
  Table t;
  const int builds = args.trace ? 1 : kBuilds;
  for (int b = 0; b < builds; ++b) {
    t = Table{};
    const double t0 = now_s();
    t = build_table(args.seed, tile_size);
    build_s.push_back(now_s() - t0);
  }
  const int table_bad = table_spot_check(t, args.seed);
  rep.check("tiled_copy_matches_table", table_bad == 0,
            fmt("%d of %d seeded entries differ", table_bad, kTableSpotChecks));
  t.full.reset(); // the engine holds its own tiled copy

  const OrbitalSet<float> spo(*t.engine);
  record_engine(rep, t, spo, threads);
  rep.record("quadrature_points", nq);

  std::vector<Crowd> crowds;
  for (int id = 0; id < threads; ++id)
    crowds.emplace_back(spo.capabilities().out_stride, nq, args.seed, id);

  run_loop(crowds, spo, *t.engine, kWarmupSeconds, false, nullptr);
  // The timed window restarts every crowd's stream, so its positions (and the
  // sampled outputs) are a function of the seed, not of the warm-up's length.
  for (int id = 0; id < threads; ++id) {
    Crowd& c = crowds[static_cast<std::size_t>(id)];
    c.rng = Xoshiro256::for_stream(mix_seed(args.seed, 1), static_cast<std::uint64_t>(id));
    c.unit_index = 0;
  }

  std::unique_ptr<Tracer> tracer;
  if (args.trace)
    tracer = std::make_unique<Tracer>(threads);
  const CpuTimes cpu0 = read_cpu_times();
  const double window = run_loop(crowds, spo, *t.engine, args.seconds, true, tracer.get());
  record_cpu_share(rep, "window_", cpu0, read_cpu_times());

  // Every figure is taken within each whole second of the window and then
  // the median over the seconds is reported: the host's memory latency
  // drifts from second to second, and a slow stretch would otherwise decide
  // the window total and fill the latency tail.
  std::uint64_t units = 0, nonfinite = 0;
  const std::size_t seconds = std::max<std::size_t>(1, static_cast<std::size_t>(window));
  std::vector<std::vector<double>> by_second(seconds);
  for (const Crowd& c : crowds) {
    units += c.units;
    nonfinite += c.nonfinite;
    for (std::size_t i = 0; i < c.latency_by_second.size() && i < seconds; ++i)
      by_second[i].insert(by_second[i].end(), c.latency_by_second[i].begin(),
                          c.latency_by_second[i].end());
  }
  std::vector<double> mixes, p50, p90;
  std::string seconds_list;
  for (const auto& lat : by_second) {
    mixes.push_back(static_cast<double>(lat.size()));
    p50.push_back(quantile(lat, 0.5));
    p90.push_back(quantile(lat, 0.9));
    seconds_list += fmt("%s%zu", seconds_list.empty() ? "" : ",", lat.size());
  }
  rep.record("mixes_per_second", seconds_list);
  rep.record("latency_samples", static_cast<double>(units));
  double worst = 0.0;
  int checked = 0;
  const int ref_bad = reference_check(crowds, *t.engine, worst, checked);
  rep.check("outputs_finite", nonfinite == 0,
            fmt("%llu of %llu request mixes had a non-finite output",
                static_cast<unsigned long long>(nonfinite), static_cast<unsigned long long>(units)));
  rep.check("matches_bspline_ref", ref_bad == 0 && checked > 0,
            fmt("%d of %d sampled outputs beyond %.0e (worst %.3g, relative to max(1, max|ref|) "
                "per component)",
                ref_bad, checked, kRefTolerance, worst));
  rep.add_attempted(units);
  rep.add_failed(nonfinite + static_cast<std::uint64_t>(ref_bad) + (table_bad ? 1 : 0));
  rep.guard("request_mixes_completed", units > 0,
            fmt("%llu request mixes in %.1f s", static_cast<unsigned long long>(units), window));

  if (!args.trace) {
    rep.metric("setup_s", median(build_s), "s");
    const double mixes_per_s = median(mixes);
    rep.metric("evals_per_s", mixes_per_s * evals_per_mix, "1/s");
    rep.metric("moves_per_s", mixes_per_s * kCrowd, "1/s");
    rep.metric("jobs_per_s", mixes_per_s, "1/s");
    rep.metric("job_p50_ms", median(p50), "ms");
    rep.metric("job_p90_ms", median(p90), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.record("setup_builds_s", fmt("%.4f,%.4f,%.4f", build_s[0], build_s[1], build_s[2]));
    return rep.finish(args);
  }

  // ---- traced run: per-layer metrics --------------------------------------
  const Tracer& tr = *tracer;
  const double root_s = tr.totals("orbital_eval.request_mix").total_s;
  const int positions[3] = {kCrowd * nq, kCrowd, kCrowd};
  const KernelId ids[3] = {KernelId::V, KernelId::VGL, KernelId::VGH};
  double bytes = 0.0, flops = 0.0;
  std::uint64_t kcalls = 0;
  double kself = 0.0, ktotal = 0.0;
  for (int k = 0; k < 3; ++k) {
    const Tracer::Totals kt = tr.totals(kKernelSpan[k]);
    const double pos = static_cast<double>(kt.calls) * positions[k];
    const KernelCostModel m = kernel_cost_model(ids[k], true, kNumSplines, sizeof(float));
    bytes += pos * m.mem_bytes;
    flops += pos * m.flops;
    kcalls += kt.calls;
    kself += kt.self_s;
    ktotal += kt.total_s;
    rep.layer(fmt("core.kernel.%s_evals_per_s", kKindName[k]),
              kt.self_s > 0 ? pos * kNumSplines / kt.self_s : 0.0);
  }
  const Tracer::Totals ft = tr.totals_prefix("core.facade.");
  // Ceilings are measured after the traced loop, with the table released
  // so the triad arrays fit beside nothing else.
  const std::size_t table_bytes = t.engine->coef_bytes();
  t = Table{};
  const Ceilings ceilings = report_ceilings(rep);
  const double triad = ceilings.triad_gbps;

  // Machine-wide rates at the measured kernel speed: every thread streams
  // its own requests, so the threads' kernel seconds overlap in wall time.
  const double kernel_wall = kself / threads;
  const double gbps = kself > 0 ? bytes / kernel_wall / 1e9 : 0.0;
  const double gflops = kself > 0 ? flops / kernel_wall / 1e9 : 0.0;
  const double ceiling =
      roofline_ceiling(bytes > 0 ? flops / bytes : 0.0, ceilings.peak_gflops, triad * 1e9);
  rep.layer("core.kernel.calls", static_cast<double>(kcalls));
  rep.layer("core.kernel.self_s", kself);
  rep.layer("core.kernel.share", root_s > 0 ? kself / root_s : 0.0);
  rep.layer("core.kernel.bytes_computed", bytes);
  rep.layer("core.kernel.gbps_computed", gbps);
  rep.layer("core.kernel.frac_triad", triad > 0 ? gbps / triad : 0.0);
  rep.layer("core.kernel.gflops_model", gflops);
  rep.layer("core.kernel.frac_roofline", ceiling > 0 ? gflops / ceiling : 0.0);
  rep.layer("core.kernel.table_bytes", static_cast<double>(table_bytes));
  rep.layer("core.facade.calls", static_cast<double>(ft.calls));
  rep.layer("core.facade.self_s", ft.self_s);
  rep.layer("core.facade.share", root_s > 0 ? ft.self_s / root_s : 0.0);
  rep.layer("core.facade.overhead_frac", ktotal > 0 ? ft.total_s / ktotal - 1.0 : 0.0);
  report_trace(rep, args, tr, root_s);
  return rep.finish(args);
}

} // namespace perfbench
