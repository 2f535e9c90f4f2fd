// google-benchmark: the batched multi-position path (core/batched.h) at
// paper scale (N >= 1024, a walker population of 8+), one position per tile
// pass (P = 1) vs position blocks.  Every request precomputes one weight set
// per position; a block of P positions then sweeps each tile's coefficient
// slice once instead of P times.
//
// The headline BM_*_BlockVsOne benchmarks interleave the two block sizes in
// one timing loop and report both throughputs plus their ratio as counters
// ("block_speedup" > 1 means the block wins) — paired measurement, so host
// noise (CPU steal, frequency drift) hits both sides equally instead of
// whichever benchmark ran during a bad window.  The reported Time column is
// the block side's (manual time).
#include <map>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/timer.h"
#include "core/batched.h"
#include "core/orbital_set.h"
#include "core/synthetic_orbitals.h"

namespace {

using namespace mqc;

constexpr int kGrid = 24;

std::shared_ptr<CoefStorage<float>> storage_for(int n)
{
  static std::map<int, std::shared_ptr<CoefStorage<float>>> cache;
  auto& slot = cache[n];
  if (!slot)
    slot = make_random_storage<float>(Grid3D<float>::cube(kGrid, 1.0f), n,
                                      91 + static_cast<std::uint64_t>(n));
  return slot;
}

/// Shared fixture state: one engine, a walker population, output buffers.
struct Population
{
  std::unique_ptr<MultiBspline<float>> engine;
  std::vector<Vec3<float>> positions;
  std::vector<std::unique_ptr<WalkerSoA<float>>> outs;
  std::vector<WalkerSoA<float>*> out_ptrs;

  Population(int n, int nb, int nw)
  {
    auto coefs = storage_for(n);
    engine = std::make_unique<MultiBspline<float>>(*coefs, nb);
    Xoshiro256 rng(7);
    for (int w = 0; w < nw; ++w) {
      positions.push_back(Vec3<float>{static_cast<float>(rng.uniform()),
                                      static_cast<float>(rng.uniform()),
                                      static_cast<float>(rng.uniform())});
      outs.push_back(std::make_unique<WalkerSoA<float>>(engine->out_stride()));
      out_ptrs.push_back(outs.back().get());
    }
  }
};

// -- paired comparisons (the acceptance-criterion benchmarks) ---------------

/// One interleaved timing loop over the same population at P = 1 and at
/// P = state.range(3) (0 = whole population).
void paired_block_vs_one(benchmark::State& state, DerivLevel deriv)
{
  const int n = static_cast<int>(state.range(0));
  const int nb = static_cast<int>(state.range(1));
  const int nw = static_cast<int>(state.range(2));
  const int pb = static_cast<int>(state.range(3));
  Population pop(n, nb, nw);
  double t_one = 0.0, t_block = 0.0;
  for (auto _ : state) {
    Stopwatch a;
    evaluate_batched(*pop.engine, deriv, pop.positions, pop.out_ptrs, 1);
    t_one += a.elapsed();
    Stopwatch b;
    evaluate_batched(*pop.engine, deriv, pop.positions, pop.out_ptrs, pb);
    const double block = b.elapsed();
    t_block += block;
    state.SetIterationTime(block);
    benchmark::DoNotOptimize(pop.outs[0]->v.data());
  }
  const double evals = static_cast<double>(n) * nw * static_cast<double>(state.iterations());
  state.counters["one_evals_per_s"] = evals / t_one;
  state.counters["block_evals_per_s"] = evals / t_block;
  state.counters["block_speedup"] = t_one / t_block;
  state.SetItemsProcessed(state.iterations() * n * nw);
}

void BM_BatchedVGH_BlockVsOne(benchmark::State& state)
{
  paired_block_vs_one(state, DerivLevel::VGH);
}

void BM_BatchedV_BlockVsOne(benchmark::State& state)
{
  paired_block_vs_one(state, DerivLevel::V);
}

// -- standalone latency -------------------------------------------------------

void BM_BatchedVGH_Block(benchmark::State& state)
{
  const int n = static_cast<int>(state.range(0));
  const int nb = static_cast<int>(state.range(1));
  const int nw = static_cast<int>(state.range(2));
  const int pb = static_cast<int>(state.range(3));
  Population pop(n, nb, nw);
  for (auto _ : state) {
    evaluate_batched(*pop.engine, DerivLevel::VGH, pop.positions, pop.out_ptrs, pb);
    benchmark::DoNotOptimize(pop.outs[0]->v.data());
  }
  state.SetItemsProcessed(state.iterations() * n * nw);
}

// -- facade overhead (the OrbitalSet acceptance criterion) -------------------
//
// Same paired-interleave recipe as BlockVsOne: one timing loop runs the
// identical serial multi-position sweep twice, once through the raw engine
// entry points and once through an OrbitalSet request.  The facade is a
// variant dispatch plus a scratch lookup per request, amortized over N*nw
// orbital evaluations — "facade_overhead" (t_facade / t_direct) must sit
// within run-to-run noise of 1.0 at N=1024.
void BM_BatchedVGH_FacadeVsDirect(benchmark::State& state)
{
  const int n = static_cast<int>(state.range(0));
  const int nb = static_cast<int>(state.range(1));
  const int nw = static_cast<int>(state.range(2));
  Population pop(n, nb, nw);

  std::vector<float*> v(pop.out_ptrs.size()), g(v.size()), h(v.size());
  for (std::size_t i = 0; i < pop.out_ptrs.size(); ++i) {
    v[i] = pop.out_ptrs[i]->v.data();
    g[i] = pop.out_ptrs[i]->g.data();
    h[i] = pop.out_ptrs[i]->h.data();
  }
  const std::size_t stride = pop.engine->out_stride();
  std::vector<BsplineWeights3D<float>> wts(static_cast<std::size_t>(nw));

  OrbitalSet<float> spo(*pop.engine);
  OrbitalResource<float> res;
  OrbitalEvalRequest<float> rq;
  rq.deriv = DerivLevel::VGH;
  rq.positions = pop.positions.data();
  rq.count = nw;
  rq.v = v.data();
  rq.g = g.data();
  rq.lh = h.data();
  rq.stride = stride;

  double t_direct = 0.0, t_facade = 0.0;
  for (auto _ : state) {
    Stopwatch a;
    compute_weights_vgh_batch(pop.engine->grid(), pop.positions.data(), nw, wts.data());
    for (int t = 0; t < pop.engine->num_tiles(); ++t)
      pop.engine->evaluate_vgh_tile_multi(t, wts.data(), nw, v.data(), g.data(), h.data(),
                                          stride);
    t_direct += a.elapsed();
    Stopwatch b;
    spo.evaluate(rq, res);
    const double facade = b.elapsed();
    t_facade += facade;
    state.SetIterationTime(facade);
    benchmark::DoNotOptimize(pop.outs[0]->v.data());
  }
  const double evals = static_cast<double>(n) * nw * static_cast<double>(state.iterations());
  state.counters["direct_evals_per_s"] = evals / t_direct;
  state.counters["facade_evals_per_s"] = evals / t_facade;
  state.counters["facade_overhead"] = t_facade / t_direct;
  state.SetItemsProcessed(state.iterations() * n * nw);
}

} // namespace

// Paper scale (N=1024..2048, 8..16 walkers) across tile sizes from the
// fine-tiled end (Nb=32) to the paper's BDW-tuned Nb=64/128, plus one
// smaller CI-friendly point.  Args: {N, Nb, nw, P}; P=0 means one block
// spanning the whole population (maximum table reuse).
BENCHMARK(BM_BatchedVGH_BlockVsOne)
    ->Args({512, 64, 8, 0})
    ->Args({1024, 32, 8, 0})
    ->Args({1024, 64, 8, 0})
    ->Args({1024, 128, 8, 0})
    ->Args({2048, 32, 16, 0})
    ->Args({2048, 128, 16, 0})
    ->UseManualTime();
BENCHMARK(BM_BatchedV_BlockVsOne)->Args({1024, 128, 8, 0})->UseManualTime();
BENCHMARK(BM_BatchedVGH_Block)
    ->Args({1024, 128, 8, 1})
    ->Args({1024, 128, 8, 0})
    ->Args({1024, 128, 8, 4});
BENCHMARK(BM_BatchedVGH_FacadeVsDirect)->Args({1024, 128, 8})->UseManualTime();
BENCHMARK_MAIN();
