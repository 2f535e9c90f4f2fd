// Shared plumbing of the benchmark workloads (see bench.h).
#include "bench.h"

#include "perf/roofline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

namespace perfbench {

// ---- clocks and statistics -------------------------------------------------

std::int64_t now_ns()
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double quantile(std::vector<double> v, double q)
{
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index)
{
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string fmt(const char* format, ...)
{
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

// ---- host facts --------------------------------------------------------------

int online_cpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

namespace {

std::string read_line(const std::string& path)
{
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

} // namespace

std::size_t llc_bytes()
{
  int best_level = -1;
  std::size_t best = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    const std::string level = read_line(dir + "/level");
    if (level.empty())
      break;
    const std::string type = read_line(dir + "/type");
    if (type == "Instruction")
      continue;
    const std::string size = read_line(dir + "/size");
    if (size.empty())
      continue;
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    const char unit = size.back();
    if (unit == 'K')
      bytes <<= 10;
    else if (unit == 'M')
      bytes <<= 20;
    else if (unit == 'G')
      bytes <<= 30;
    const int lv = std::atoi(level.c_str());
    if (lv > best_level) {
      best_level = lv;
      best = bytes;
    }
  }
  return best;
}

double peak_rss_mb()
{
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) * 1024.0 / 1e6;
  }
  return 0.0;
}

std::vector<std::string> inherited_overrides()
{
  std::vector<std::string> found;
  for (const char* name : {"MQC_PARTITION", "MQC_INNER_THREADS", "MQC_SHARDS", "MQC_TOPOLOGY"}) {
    if (const char* v = std::getenv(name))
      found.push_back(std::string(name) + "=" + v);
  }
  return found;
}

CpuTimes read_cpu_times()
{
  std::ifstream in("/proc/stat");
  std::string cpu;
  double f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& x : f)
    in >> x;
  CpuTimes t;
  t.busy = f[0] + f[1] + f[2] + f[5] + f[6];
  t.steal = f[7];
  for (const double x : f)
    t.total += x;
  return t;
}

void record_cpu_share(Report& rep, const std::string& prefix, const CpuTimes& a, const CpuTimes& b)
{
  const double total = b.total - a.total;
  rep.record(prefix + "steal_frac", total > 0 ? (b.steal - a.steal) / total : 0.0);
  rep.record(prefix + "busy_frac", total > 0 ? (b.busy - a.busy) / total : 0.0);
}

// ---- explicit pinning ----------------------------------------------------------

bool pin_current_thread(int cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

bool pin_tid(pid_t tid, int cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::vector<pid_t> thread_ids()
{
  std::vector<pid_t> ids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] != '.')
        ids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
    }
    closedir(d);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---- the run report -------------------------------------------------------------

namespace {

std::string json_string(const std::string& s)
{
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\')
      out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v)
{
  if (!std::isfinite(v))
    return "null";
  return fmt("%.17g", v);
}

} // namespace

void Report::record(const std::string& key, const std::string& value)
{
  record_.push_back({key, json_string(value)});
}

void Report::record(const std::string& key, double value)
{
  record_.push_back({key, json_number(value)});
}

void Report::check(const std::string& name, bool ok, const std::string& detail)
{
  verdicts_.push_back(fmt("check %-4s %s: %s", ok ? "PASS" : "FAIL", name.c_str(), detail.c_str()));
  ok_ = ok_ && ok;
}

void Report::guard(const std::string& name, bool ok, const std::string& detail)
{
  verdicts_.push_back(fmt("guard %-4s %s: %s", ok ? "PASS" : "FAIL", name.c_str(), detail.c_str()));
  ok_ = ok_ && ok;
}

void Report::metric(const std::string& name, double value, const std::string& unit)
{
  metrics_.push_back({name, {value, unit}});
}

void Report::layer(const std::string& name, double value) { layers_.push_back({name, value}); }

int Report::finish(const Args& args)
{
  std::string rec = "{";
  for (std::size_t i = 0; i < record_.size(); ++i) {
    if (i > 0)
      rec += ",";
    rec += json_string(record_[i].name);
    rec += ":";
    rec += record_[i].text;
  }
  rec += "}";
  std::printf("record %s\n", rec.c_str());
  for (const auto& v : verdicts_)
    std::printf("%s\n", v.c_str());
  if (!ok_ && failed_ == 0)
    failed_ = 1; // a failed guard or check is a failed operation of this run
  const double failed_frac =
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
  std::printf("failed_frac %.6g (failed %llu of %llu attempted)\n", failed_frac,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  std::string metrics;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    std::printf("metric %-34s %-14.6g %s\n", name.c_str(), value, unit.c_str());
    if (!metrics.empty())
      metrics += ",";
    metrics += json_string(name) + ":{\"value\":" + json_number(value) +
               ",\"unit\":" + json_string(unit) + "}";
  };
  if (args.trace) {
    for (const auto& [name, value] : layers_) {
      const auto& known = layer_metrics();
      if (std::none_of(known.begin(), known.end(),
                       [&](const LayerMetric& m) { return name == m.name; })) {
        std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n", name.c_str());
        return 3;
      }
    }
    for (const auto& m : layer_metrics()) {
      double value = 0.0;
      for (const auto& [name, v] : layers_)
        if (name == m.name)
          value = v;
      add(m.name, value, m.unit);
    }
  } else {
    for (const auto& [name, vu] : metrics_)
      add(name, vu.first, vu.second);
  }
  const bool correct = ok_ && failed_ == 0 && attempted_ > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void record_host(Report& rep, const Args& args)
{
  rep.record("workload", args.workload);
  rep.record("seed", static_cast<double>(args.seed));
  rep.record("seconds", args.seconds);
  rep.record("trace", args.trace ? 1.0 : 0.0);
  rep.record("nproc", online_cpus());
  rep.record("llc_bytes", static_cast<double>(llc_bytes()));
  const std::vector<std::string> env = inherited_overrides();
  std::string joined;
  for (const auto& e : env) {
    if (!joined.empty())
      joined += " ";
    joined += e;
  }
  rep.record("mqc_overrides", joined);
  rep.guard("no_inherited_overrides", env.empty(), env.empty() ? "none set" : joined);
}

Ceilings report_ceilings(Report& rep)
{
  const std::size_t llc = llc_bytes();
  const std::size_t n = std::max<std::size_t>(std::size_t{1} << 25,
                                              (4 * llc + 3 * sizeof(float) - 1) / (3 * sizeof(float)));
  Ceilings c;
  c.triad_gbps = mqc::measure_triad_bandwidth(n, 3) / 1e9;
  c.peak_gflops = mqc::measure_peak_gflops_sp(3);
  rep.record("triad_array_bytes", static_cast<double>(n * sizeof(float)));
  rep.record("triad_total_bytes", static_cast<double>(3 * n * sizeof(float)));
  rep.record("llc_x4_bytes", static_cast<double>(4 * llc));
  rep.layer("perf.triad_gbps", c.triad_gbps);
  rep.layer("perf.peak_gflops", c.peak_gflops);
  return c;
}

void report_trace(Report& rep, const Args& args, const Tracer& tr, double traced_thread_s)
{
  const double span_cost = Tracer::calibrate_span_cost();
  const auto spans = static_cast<double>(tr.span_count());
  rep.layer("trace.overhead_frac", traced_thread_s > 0 ? span_cost * spans / traced_thread_s : 0.0);
  rep.record("trace_spans", spans);
  rep.record("trace_span_cost_ns", span_cost * 1e9);
  if (args.trace_dir.empty())
    return;
  const std::string path =
      args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
  rep.record("trace_file", tr.write_chrome_json(path) ? path : "unwritable: " + path);
}

// ---- span tracer ------------------------------------------------------------------

namespace {
thread_local std::vector<Span>* tl_spans = nullptr;
thread_local std::vector<std::int32_t>* tl_stack = nullptr;
} // namespace

Tracer::Tracer(int max_threads) : buffers_(static_cast<std::size_t>(max_threads)) {}

void Tracer::register_thread(int slot, std::size_t reserve)
{
  Buffer& b = buffers_[static_cast<std::size_t>(slot)];
  b.spans.reserve(reserve);
  b.stack.reserve(64);
  tl_spans = &b.spans;
  tl_stack = &b.stack;
}

void Tracer::begin(const char* name, std::uint32_t unit)
{
  const std::int32_t parent = tl_stack->empty() ? -1 : tl_stack->back();
  tl_stack->push_back(static_cast<std::int32_t>(tl_spans->size()));
  tl_spans->push_back(Span{name, now_ns(), 0, parent, unit});
}

void Tracer::end()
{
  (*tl_spans)[static_cast<std::size_t>(tl_stack->back())].end_ns = now_ns();
  tl_stack->pop_back();
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint32_t unit)
{
  tl_spans->push_back(Span{name, start_ns, end_ns, -1, unit});
}

Tracer::Totals Tracer::collect(const std::function<bool(const char*)>& match) const
{
  Totals t;
  for (const Buffer& b : buffers_) {
    // Children of one parent run one after another on the same thread, so
    // their durations add up without overlap.
    std::vector<std::int64_t> covered(b.spans.size(), 0);
    for (const Span& s : b.spans)
      if (s.parent >= 0)
        covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      if (!match(s.name))
        continue;
      const std::int64_t dur = s.end_ns - s.start_ns;
      ++t.calls;
      t.total_s += static_cast<double>(dur) * 1e-9;
      t.self_s += static_cast<double>(std::max<std::int64_t>(0, dur - covered[i])) * 1e-9;
    }
  }
  return t;
}

Tracer::Totals Tracer::totals(const std::string& name) const
{
  return collect([&](const char* n) { return name == n; });
}

Tracer::Totals Tracer::totals_prefix(const std::string& prefix) const
{
  return collect([&](const char* n) { return std::strncmp(n, prefix.c_str(), prefix.size()) == 0; });
}

std::uint64_t Tracer::span_count() const
{
  std::uint64_t n = 0;
  for (const auto& b : buffers_)
    n += b.spans.size();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path) const
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f)
    return false;
  std::int64_t t0 = INT64_MAX;
  for (const auto& b : buffers_)
    for (const Span& s : b.spans)
      t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
    const auto& spans = buffers_[tid].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"unit\":%u}}",
                   first ? "" : ",\n", s.name, tid, static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.unit);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double Tracer::calibrate_span_cost()
{
  std::vector<Span>* saved_spans = tl_spans;
  std::vector<std::int32_t>* saved_stack = tl_stack;
  constexpr int kPairs = 20000;
  std::vector<double> costs;
  for (int rep = 0; rep < 7; ++rep) {
    Tracer t(1);
    t.register_thread(0, 2 * kPairs + 1);
    const std::int64_t start = now_ns();
    t.begin("calibration.root", 0);
    for (int i = 0; i < kPairs; ++i) {
      t.begin("calibration.child", 0);
      t.end();
    }
    t.end();
    costs.push_back(static_cast<double>(now_ns() - start) * 1e-9 / kPairs);
  }
  tl_spans = saved_spans;
  tl_stack = saved_stack;
  return median(costs);
}

// ---- per-layer metrics ---------------------------------------------------------------

const std::vector<LayerMetric>& layer_metrics()
{
  static const std::vector<LayerMetric> all = {
      {"core.kernel.v_evals_per_s", "1/s"},
      {"core.kernel.vgl_evals_per_s", "1/s"},
      {"core.kernel.vgh_evals_per_s", "1/s"},
      {"core.kernel.calls", "count"},
      {"core.kernel.self_s", "s"},
      {"core.kernel.share", "1"},
      {"core.kernel.bytes_computed", "B"},
      {"core.kernel.gbps_computed", "GB/s"},
      {"core.kernel.frac_triad", "1"},
      {"core.kernel.gflops_model", "GFLOP/s"},
      {"core.kernel.frac_roofline", "1"},
      {"core.kernel.table_bytes", "B"},
      {"core.facade.calls", "count"},
      {"core.facade.self_s", "s"},
      {"core.facade.share", "1"},
      {"core.facade.overhead_frac", "1"},
      {"distance.calls", "count"},
      {"distance.self_s", "s"},
      {"distance.ns_per_call", "ns"},
      {"distance.share", "1"},
      {"distance.evaluate_ms", "ms"},
      {"jastrow.calls", "count"},
      {"jastrow.self_s", "s"},
      {"jastrow.ns_per_call", "ns"},
      {"jastrow.share", "1"},
      {"determinant.calls", "count"},
      {"determinant.self_s", "s"},
      {"determinant.ns_per_call", "ns"},
      {"determinant.share", "1"},
      {"determinant.accept_frac", "1"},
      {"determinant.build_ms", "ms"},
      {"determinant.build_failed", "count"},
      {"qmc.sweep.moves", "count"},
      {"qmc.sweep.self_s", "s"},
      {"qmc.sweep.share", "1"},
      {"qmc.driver.sweep_s", "s"},
      {"qmc.driver.overhead_frac", "1"},
      {"qmc.service.jobs", "count"},
      {"qmc.service.jobs_failed", "count"},
      {"qmc.service.batches", "count"},
      {"qmc.service.packing_factor", "1"},
      {"qmc.service.idle_job_ms", "ms"},
      {"qmc.service.replica_bytes", "B"},
      {"perf.triad_gbps", "GB/s"},
      {"perf.peak_gflops", "GFLOP/s"},
      {"trace.overhead_frac", "1"},
  };
  return all;
}

} // namespace perfbench
