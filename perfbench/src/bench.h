// Shared plumbing of the benchmark workloads: arguments, clocks, order
// statistics, host facts read from the OS, explicit thread pinning, the
// per-run report (record, checks, guards, metrics, final JSON line) and the
// in-memory span tracer used by the traced runs.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

struct Args
{
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir; ///< where a traced run writes its spans (empty = nowhere)
};

// ---- clocks and statistics -------------------------------------------------

std::int64_t now_ns();
double now_s();

/// Linear-interpolation quantile (q in [0, 1]) of @p v; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// splitmix64 finalizer: derives independent 64-bit values from (seed, index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

class Report;

// ---- host facts --------------------------------------------------------------

int online_cpus();
/// Size of the highest-level cache cpu0 reports in sysfs (0 when unknown).
std::size_t llc_bytes();
/// Peak resident set of this process (VmHWM), in MB (1e6 bytes).
double peak_rss_mb();
/// `MQC_*` knobs that override the library's thread or shard decisions and
/// are set in this process's environment, as "NAME=value" strings.
std::vector<std::string> inherited_overrides();

/// Aggregate cpu time counters from /proc/stat, to record how much of a
/// timed window the hypervisor took away (steal) and how busy the guest was.
struct CpuTimes
{
  double busy = 0.0;  ///< user + nice + system + irq + softirq
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes read_cpu_times();
/// Record `<prefix>steal_frac` and `<prefix>busy_frac` between two samples.
void record_cpu_share(Report& rep, const std::string& prefix, const CpuTimes& a, const CpuTimes& b);

// ---- explicit pinning ----------------------------------------------------------

bool pin_current_thread(int cpu);
bool pin_tid(pid_t tid, int cpu);
/// Kernel thread ids of every thread of this process, ascending.
std::vector<pid_t> thread_ids();

// ---- the run report -------------------------------------------------------------

/// Collects what a run did and prints it: one `record` line (what ran), one
/// line per check and guard with its verdict, one line per metric, and last
/// the JSON result line.  A failed check or guard makes the run incorrect
/// and its exit code non-zero.
class Report
{
public:
  void record(const std::string& key, const std::string& value);
  void record(const std::string& key, double value);
  /// Output check: counts toward `failed_frac` through add_failed().
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Engagement guard: the mechanism the workload exists to measure ran.
  void guard(const std::string& name, bool ok, const std::string& detail);
  /// End-to-end metric (untraced runs).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (traced runs); must be one of layer_metrics().
  void layer(const std::string& name, double value);

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  /// Print everything; returns the process exit code.
  int finish(const Args& args);

private:
  struct Item
  {
    std::string name;
    std::string text;
  };
  std::vector<Item> record_;
  std::vector<std::string> verdicts_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool ok_ = true;
};

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

// ---- span tracer ------------------------------------------------------------------

/// One recorded interval.  `parent` indexes the same thread's buffer (-1 for
/// a root); `unit` is shared by every span of one unit of work.
struct Span
{
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint32_t unit;
};

/// Per-thread span buffers, kept in memory until the run ends.  Each thread
/// that records owns one buffer (register_thread), so recording takes no
/// lock.  Spans nest by a per-thread stack; overlapping intervals that do
/// not nest (client-side job latencies) are added whole with add().
class Tracer
{
public:
  explicit Tracer(int max_threads);

  /// Bind the calling thread to buffer @p slot (one thread per slot).
  void register_thread(int slot, std::size_t reserve);

  void begin(const char* name, std::uint32_t unit);
  void end();
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::uint32_t unit);

  struct Totals
  {
    std::uint64_t calls = 0;
    double total_s = 0.0; ///< summed span durations
    double self_s = 0.0;  ///< summed durations minus the parts children cover
  };
  /// Totals per span name over every buffer.
  [[nodiscard]] Totals totals(const std::string& name) const;
  /// Totals over every span whose name starts with @p prefix.
  [[nodiscard]] Totals totals_prefix(const std::string& prefix) const;
  [[nodiscard]] std::uint64_t span_count() const;

  /// Write every span as Chrome trace-event JSON (loadable in a trace
  /// viewer); parent and unit ride in each event's args.
  bool write_chrome_json(const std::string& path) const;

  /// Measured cost of recording one nested span pair on this host, in
  /// seconds (median of several calibration batches).
  static double calibrate_span_cost();

private:
  struct Buffer
  {
    std::vector<Span> spans;
    std::vector<std::int32_t> stack;
  };
  [[nodiscard]] Totals collect(const std::function<bool(const char*)>& match) const;
  std::vector<Buffer> buffers_;
};

/// RAII span on the calling thread's buffer; a null tracer records nothing.
class ScopedSpan
{
public:
  ScopedSpan(Tracer* t, const char* name, std::uint32_t unit) : t_(t)
  {
    if (t_)
      t_->begin(name, unit);
  }
  ~ScopedSpan()
  {
    if (t_)
      t_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  Tracer* t_;
};

// ---- per-layer metrics ---------------------------------------------------------------

/// Every per-layer metric a traced run prints, with its unit, in one fixed
/// order.  A workload that does not exercise a layer reports that layer's
/// counts and times as 0.
struct LayerMetric
{
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Record the host facts every run carries (nproc, LLC bytes, seed) and fail
/// the run when an inherited `MQC_*` knob overrides the library's thread or
/// shard decisions.
void record_host(Report& rep, const Args& args);
/// Machine ceilings for the traced runs' `frac_*` metrics.
struct Ceilings
{
  double triad_gbps = 0.0;  ///< measure_triad_bandwidth, arrays together >= 4 x LLC
  double peak_gflops = 0.0; ///< measure_peak_gflops_sp
};
/// Measure the ceilings, report them as perf.* layer metrics and record the
/// triad array sizes.
Ceilings report_ceilings(Report& rep);
/// Report trace.overhead_frac (calibrated cost of one span x spans recorded,
/// over @p traced_thread_s of traced thread time), record the span count and
/// write the spans under args.trace_dir (when set).
void report_trace(Report& rep, const Args& args, const Tracer& tr, double traced_thread_s);

// ---- workloads --------------------------------------------------------------------

int run_orbital_eval(const Args& args);
int run_vmc_graphite(const Args& args);
int run_job_service(const Args& args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
