// Vectorization helpers.
//
// The paper's central portability claim is that the kernels reach high SIMD
// efficiency *without* processor-specific intrinsics: `#pragma omp simd`
// plus alignment/stride guarantees are enough.  These macros centralize the
// pragmas so engines stay readable and a scalar build (used to measure
// "vector efficiency" in §VI-A) can switch them off globally.
#ifndef MQC_COMMON_SIMD_H
#define MQC_COMMON_SIMD_H

#include "common/config.h"

// MQC_NO_VECTOR emulates the paper's "-no-vec -no-simd -no-openmp-simd"
// compile line used to quantify vector efficiency: all simd pragmas vanish
// and loops compile as written (the build system also strips -ftree-vectorize
// for those targets).
#if defined(MQC_NO_VECTOR)
#define MQC_SIMD
#define MQC_SIMD_REDUCTION(...)
#define MQC_SIMD_ALIGNED(...)
#else
#define MQC_PRAGMA_IMPL(x) _Pragma(#x)
#define MQC_SIMD MQC_PRAGMA_IMPL(omp simd)
#define MQC_SIMD_REDUCTION(...) MQC_PRAGMA_IMPL(omp simd reduction(__VA_ARGS__))
#define MQC_SIMD_ALIGNED(...) MQC_PRAGMA_IMPL(omp simd aligned(__VA_ARGS__ : 64))
#endif

namespace mqc {

// Fixed lane order for sums whose bits steer a trajectory.  An
// MQC_SIMD_REDUCTION adds in an order that follows the vector width, so SSE2,
// AVX2, AVX-512 and MQC_NO_VECTOR builds would round differently.  A
// fixed-lane sum keeps kSumLanes partial sums instead:
//
//   s_k = sum of the terms j = k (mod 8), added in increasing j
//   sum = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
//
// The partial sums are plain lane loops under MQC_SIMD, which the compiler
// maps onto 2-, 4- or 8-wide registers without reassociating anything.  The
// determinant's dot products (determinant/lane_dot.h) and the Jastrow ratio
// (BsplineJastrowFunctor::sum_row) add in this order.

/// Partial sums of a fixed-lane sum; the order above is defined for 8.
inline constexpr int kSumLanes = 8;

/// The fixed combine of the kSumLanes partial sums @p s.
template <typename T>
MQC_FORCE_INLINE T combine_lanes(const T* s) noexcept
{
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

} // namespace mqc

#endif // MQC_COMMON_SIMD_H
