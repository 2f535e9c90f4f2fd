#include "bench_common.h"

#include <cstring>
#include <fstream>
#include <functional>

namespace mqc::bench {
namespace {

/// Per-walker kernel closure: evaluates all `ns` positions once.
using EvalBatch = std::function<void()>;

/// Build the per-walker batch evaluator for a layout/kernel pair.  Buffers
/// and positions are owned by the returned closure (thread-private).
EvalBatch make_batch(Layout layout, DerivLevel kernel, const CoefStorage<float>& full,
                     const std::shared_ptr<const CoefStorage<float>>& shared,
                     const std::shared_ptr<MultiBspline<float>>& aosoa, int ns,
                     std::uint64_t seed)
{
  const auto pos = std::make_shared<Positions<float>>(
      random_eval_positions(full.grid(), ns, seed));
  switch (layout) {
  case Layout::AoS: {
    auto engine = std::make_shared<BsplineAoS<float>>(shared);
    auto w = std::make_shared<WalkerAoS<float>>(engine->padded_splines());
    return [engine, w, pos, ns, kernel] {
      for (int s = 0; s < ns; ++s) {
        const auto u = static_cast<std::size_t>(s);
        switch (kernel) {
        case DerivLevel::V:
          engine->evaluate_v(pos->x[u], pos->y[u], pos->z[u], w->v.data());
          break;
        case DerivLevel::VGL:
          engine->evaluate_vgl(pos->x[u], pos->y[u], pos->z[u], w->v.data(), w->g.data(),
                               w->l.data());
          break;
        case DerivLevel::VGH:
          engine->evaluate_vgh(pos->x[u], pos->y[u], pos->z[u], w->v.data(), w->g.data(),
                               w->h.data());
          break;
        }
      }
    };
  }
  case Layout::SoA:
  case Layout::SoANoZUnroll: {
    auto engine = std::make_shared<BsplineSoA<float>>(shared);
    auto w = std::make_shared<WalkerSoA<float>>(engine->out_stride());
    const bool no_unroll = layout == Layout::SoANoZUnroll;
    return [engine, w, pos, ns, kernel, no_unroll] {
      for (int s = 0; s < ns; ++s) {
        const auto u = static_cast<std::size_t>(s);
        switch (kernel) {
        case DerivLevel::V:
          engine->evaluate_v(pos->x[u], pos->y[u], pos->z[u], w->v.data());
          break;
        case DerivLevel::VGL:
          engine->evaluate_vgl(pos->x[u], pos->y[u], pos->z[u], w->v.data(), w->g.data(),
                               w->l.data(), w->stride);
          break;
        case DerivLevel::VGH:
          if (no_unroll)
            engine->evaluate_vgh_no_zunroll(pos->x[u], pos->y[u], pos->z[u], w->v.data(),
                                            w->g.data(), w->h.data(), w->stride);
          else
            engine->evaluate_vgh(pos->x[u], pos->y[u], pos->z[u], w->v.data(), w->g.data(),
                                 w->h.data(), w->stride);
          break;
        }
      }
    };
  }
  case Layout::AoSoA: {
    auto w = std::make_shared<WalkerSoA<float>>(aosoa->out_stride());
    return [aosoa, w, pos, ns, kernel] {
      for (int s = 0; s < ns; ++s) {
        const auto u = static_cast<std::size_t>(s);
        switch (kernel) {
        case DerivLevel::V:
          aosoa->evaluate_v(pos->x[u], pos->y[u], pos->z[u], w->v.data());
          break;
        case DerivLevel::VGL:
          aosoa->evaluate_vgl(pos->x[u], pos->y[u], pos->z[u], w->v.data(), w->g.data(),
                              w->l.data(), w->stride);
          break;
        case DerivLevel::VGH:
          aosoa->evaluate_vgh(pos->x[u], pos->y[u], pos->z[u], w->v.data(), w->g.data(),
                              w->h.data(), w->stride);
          break;
        }
      }
    };
  }
  }
  return [] {};
}

} // namespace

double measure_throughput(Layout layout, DerivLevel kernel, const CoefStorage<float>& full, int tile,
                          int ns, double min_seconds, std::uint64_t seed)
{
  const int nw = max_threads();
  // Reconstructing a shared_ptr copy of `full` would double memory; instead
  // alias it with a no-op deleter (the caller keeps `full` alive).
  std::shared_ptr<const CoefStorage<float>> alias(&full, [](const CoefStorage<float>*) {});
  std::shared_ptr<MultiBspline<float>> aosoa;
  if (layout == Layout::AoSoA)
    aosoa = std::make_shared<MultiBspline<float>>(full, tile);

  // Calibrate the repetition count on one walker.
  auto calib = make_batch(layout, kernel, full, alias, aosoa, ns, seed);
  calib(); // warm up
  Stopwatch cw;
  calib();
  const double t_batch = std::max(cw.elapsed(), 1e-6);
  const int reps = std::max(1, static_cast<int>(min_seconds / t_batch) + 1);

  // Best of three attempts: shared/virtualized hosts show large run-to-run
  // noise (CPU steal, frequency drift); the maximum is the machine's honest
  // capability, as in STREAM methodology.
  double best = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Stopwatch watch;
#pragma omp parallel num_threads(nw)
    {
      auto batch = make_batch(layout, kernel, full, alias, aosoa, ns,
                              seed + static_cast<std::uint64_t>(thread_id()));
      for (int r = 0; r < reps; ++r)
        batch();
    }
    const double seconds = watch.elapsed();
    const double evals = static_cast<double>(nw) * reps * ns * full.num_splines();
    best = std::max(best, evals / seconds);
  }
  return best;
}

double measure_seconds_per_eval(Layout layout, DerivLevel kernel, const CoefStorage<float>& full,
                                int tile, int ns, double min_seconds, std::uint64_t seed)
{
  std::shared_ptr<const CoefStorage<float>> alias(&full, [](const CoefStorage<float>*) {});
  std::shared_ptr<MultiBspline<float>> aosoa;
  if (layout == Layout::AoSoA)
    aosoa = std::make_shared<MultiBspline<float>>(full, tile);
  auto batch = make_batch(layout, kernel, full, alias, aosoa, ns, seed);
  const double t = time_per_iteration(batch, min_seconds, 2);
  return t / ns;
}

// ---------------------------------------------------------------------------
// JsonReporter
// ---------------------------------------------------------------------------

namespace {

/// Minimal JSON string escape (names/units are plain ASCII identifiers).
std::string json_escape(const std::string& s)
{
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\')
      out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

} // namespace

JsonReporter JsonReporter::from_args(int argc, char** argv, const std::string& bench_name)
{
  JsonReporter r;
  r.bench_ = bench_name;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      r.path_ = argv[i + 1];
      break;
    }
    if (std::strncmp(arg, "--json=", 7) == 0) {
      r.path_ = arg + 7;
      break;
    }
  }
  return r;
}

void JsonReporter::add(const std::string& name, double value, const std::string& unit)
{
  rows_.push_back({name, value, unit});
}

bool JsonReporter::write() const
{
  if (path_.empty())
    return true;
  std::ofstream out(path_);
  if (!out)
    return false;
  out << "{\"bench\": \"" << json_escape(bench_) << "\", \"rows\": [";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0)
      out << ", ";
    out << "{\"name\": \"" << json_escape(rows_[i].name) << "\", \"value\": " << rows_[i].value
        << ", \"unit\": \"" << json_escape(rows_[i].unit) << "\"}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

} // namespace mqc::bench
