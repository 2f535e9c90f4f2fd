// §VI-A "vector efficiency": throughput with vectorization enabled divided
// by throughput of the same algorithm compiled scalar (the paper's
// "-no-vec -no-simd -no-openmp-simd" measurement).  Paper, KNL @ N=256:
// AoS baseline ~1.2x (the strided stores defeat SIMD), SoA > 4x.
//
// The scalar twins below replicate the engine inner loops inside functions
// marked __attribute__((optimize("no-tree-vectorize"))) — per-function
// scalarization without a second build of the library (and without ODR
// hazards from re-including the headers under different flags).
#include <algorithm>
#include <iostream>

#include "common/table.h"
#include "common/timer.h"
#include "core/weights.h"
#include "bench_common.h"

namespace {

using namespace mqc;

#if defined(__GNUC__) && !defined(__clang__)
#define MQC_NOVEC_FN __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define MQC_NOVEC_FN
#endif

/// Scalar twin of BsplineSoA<float>::evaluate_vgh (fused z-sums, 10 streams).
MQC_NOVEC_FN void vgh_soa_scalar(const CoefStorage<float>& coefs, float x, float y, float z,
                                 float* MQC_RESTRICT v, float* MQC_RESTRICT g,
                                 float* MQC_RESTRICT h, std::size_t stride)
{
  BsplineWeights3D<float> w;
  compute_weights_vgh(coefs.grid(), x, y, z, w);
  const int np = static_cast<int>(coefs.padded_splines());
  const std::size_t zs = coefs.stride_z();
  float* gx = g;
  float* gy = g + stride;
  float* gz = g + 2 * stride;
  float* hxx = h;
  float* hxy = h + stride;
  float* hxz = h + 2 * stride;
  float* hyy = h + 3 * stride;
  float* hyz = h + 4 * stride;
  float* hzz = h + 5 * stride;
  std::fill_n(v, static_cast<std::size_t>(np), 0.0f);
  for (int q = 0; q < 3; ++q)
    std::fill_n(g + static_cast<std::size_t>(q) * stride, static_cast<std::size_t>(np), 0.0f);
  for (int q = 0; q < 6; ++q)
    std::fill_n(h + static_cast<std::size_t>(q) * stride, static_cast<std::size_t>(np), 0.0f);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      const float* p0 = coefs.row(w.i0 + i, w.j0 + j, w.k0);
      const float* p1 = p0 + zs;
      const float* p2 = p0 + 2 * zs;
      const float* p3 = p0 + 3 * zs;
      const float pre00 = w.a[i] * w.b[j];
      const float pre01 = w.a[i] * w.db[j];
      const float pre02 = w.a[i] * w.d2b[j];
      const float pre10 = w.da[i] * w.b[j];
      const float pre11 = w.da[i] * w.db[j];
      const float pre20 = w.d2a[i] * w.b[j];
      for (int n = 0; n < np; ++n) {
        const float P0 = p0[n], P1 = p1[n], P2 = p2[n], P3 = p3[n];
        const float s = w.c[0] * P0 + w.c[1] * P1 + w.c[2] * P2 + w.c[3] * P3;
        const float ds = w.dc[0] * P0 + w.dc[1] * P1 + w.dc[2] * P2 + w.dc[3] * P3;
        const float d2s = w.d2c[0] * P0 + w.d2c[1] * P1 + w.d2c[2] * P2 + w.d2c[3] * P3;
        v[n] += pre00 * s;
        gx[n] += pre10 * s;
        gy[n] += pre01 * s;
        gz[n] += pre00 * ds;
        hxx[n] += pre20 * s;
        hxy[n] += pre11 * s;
        hxz[n] += pre10 * ds;
        hyy[n] += pre02 * s;
        hyz[n] += pre01 * ds;
        hzz[n] += pre00 * d2s;
      }
    }
}

/// Scalar twin of BsplineAoS<float>::evaluate_vgh (13 strided components).
MQC_NOVEC_FN void vgh_aos_scalar(const CoefStorage<float>& coefs, float x, float y, float z,
                                 float* MQC_RESTRICT v, float* MQC_RESTRICT g,
                                 float* MQC_RESTRICT h)
{
  BsplineWeights3D<float> w;
  compute_weights_vgh(coefs.grid(), x, y, z, w);
  const int np = static_cast<int>(coefs.padded_splines());
  std::fill_n(v, static_cast<std::size_t>(np), 0.0f);
  std::fill_n(g, 3 * static_cast<std::size_t>(np), 0.0f);
  std::fill_n(h, 9 * static_cast<std::size_t>(np), 0.0f);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      for (int k = 0; k < 4; ++k) {
        const float wv = w.a[i] * w.b[j] * w.c[k];
        const float wx = w.da[i] * w.b[j] * w.c[k];
        const float wy = w.a[i] * w.db[j] * w.c[k];
        const float wz = w.a[i] * w.b[j] * w.dc[k];
        const float wxx = w.d2a[i] * w.b[j] * w.c[k];
        const float wxy = w.da[i] * w.db[j] * w.c[k];
        const float wxz = w.da[i] * w.b[j] * w.dc[k];
        const float wyy = w.a[i] * w.d2b[j] * w.c[k];
        const float wyz = w.a[i] * w.db[j] * w.dc[k];
        const float wzz = w.a[i] * w.b[j] * w.d2c[k];
        const float* p = coefs.row(w.i0 + i, w.j0 + j, w.k0 + k);
        for (int n = 0; n < np; ++n) {
          const float pn = p[n];
          v[n] += wv * pn;
          g[3 * n + 0] += wx * pn;
          g[3 * n + 1] += wy * pn;
          g[3 * n + 2] += wz * pn;
          h[9 * n + 0] += wxx * pn;
          h[9 * n + 1] += wxy * pn;
          h[9 * n + 2] += wxz * pn;
          h[9 * n + 3] += wxy * pn;
          h[9 * n + 4] += wyy * pn;
          h[9 * n + 5] += wyz * pn;
          h[9 * n + 6] += wxz * pn;
          h[9 * n + 7] += wyz * pn;
          h[9 * n + 8] += wzz * pn;
        }
      }
}

template <typename Fn>
double throughput_single_thread(Fn&& fn, int num_splines, int ns, double min_seconds)
{
  const double t = time_per_iteration(fn, min_seconds, 2);
  return static_cast<double>(num_splines) * ns / t;
}

} // namespace

int main()
{
  using namespace mqc::bench;
  const BenchScale scale = bench_scale();
  const int n = 256; // the paper quotes vector efficiency at N=256
  const auto grid = Grid3D<float>::cube(scale.grid, 1.0f);
  auto coefs = mqc::make_random_storage<float>(grid, n, 606);
  const auto pos = random_eval_positions(grid, scale.ns, 7);

  mqc::print_banner(std::cout, "Vector efficiency (vectorized / scalar build), VGH at N=" +
                                   std::to_string(n));

  // Vectorized paths (single thread for an apples-to-apples ratio).
  const double t_soa_vec =
      measure_seconds_per_eval(Layout::SoA, DerivLevel::VGH, *coefs, n, scale.ns, scale.min_seconds);
  const double t_aos_vec =
      measure_seconds_per_eval(Layout::AoS, DerivLevel::VGH, *coefs, n, scale.ns, scale.min_seconds);

  // Scalar twins.
  std::shared_ptr<const mqc::CoefStorage<float>> alias(&*coefs,
                                                       [](const mqc::CoefStorage<float>*) {});
  mqc::WalkerSoA<float> ws(coefs->padded_splines());
  mqc::WalkerAoS<float> wa(coefs->padded_splines());
  const int ns = scale.ns;
  const double T_soa_scalar = throughput_single_thread(
      [&] {
        for (int s = 0; s < ns; ++s)
          vgh_soa_scalar(*coefs, pos.x[static_cast<std::size_t>(s)],
                         pos.y[static_cast<std::size_t>(s)], pos.z[static_cast<std::size_t>(s)],
                         ws.v.data(), ws.g.data(), ws.h.data(), ws.stride);
      },
      n, ns, scale.min_seconds);
  const double T_aos_scalar = throughput_single_thread(
      [&] {
        for (int s = 0; s < ns; ++s)
          vgh_aos_scalar(*coefs, pos.x[static_cast<std::size_t>(s)],
                         pos.y[static_cast<std::size_t>(s)], pos.z[static_cast<std::size_t>(s)],
                         wa.v.data(), wa.g.data(), wa.h.data());
      },
      n, ns, scale.min_seconds);

  const double T_soa_vec = static_cast<double>(n) / t_soa_vec;
  const double T_aos_vec = static_cast<double>(n) / t_aos_vec;

  mqc::TablePrinter tp({"layout", "scalar (Meval/s)", "vectorized (Meval/s)", "vector efficiency",
                        "paper KNL"});
  tp.add_row({"AoS", mqc::TablePrinter::cell(T_aos_scalar / 1e6, 2),
              mqc::TablePrinter::cell(T_aos_vec / 1e6, 2),
              mqc::TablePrinter::cell(T_aos_vec / T_aos_scalar, 2), "1.2"});
  tp.add_row({"SoA", mqc::TablePrinter::cell(T_soa_scalar / 1e6, 2),
              mqc::TablePrinter::cell(T_soa_vec / 1e6, 2),
              mqc::TablePrinter::cell(T_soa_vec / T_soa_scalar, 2), "> 4"});
  tp.print(std::cout);
  std::cout << "\nShape check: SoA converts vector width into real speedup; the AoS layout\n"
               "cannot (strided stores), which is the whole premise of Opt A.\n";
  return 0;
}
