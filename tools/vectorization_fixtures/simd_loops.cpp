// Fixture for `tools/check_vectorization.py --self-test`: one MQC_SIMD loop
// that vectorizes, one that cannot (an opaque call per lane) and one in a
// template that nothing instantiates.  The `// expect:` comment above each
// pragma names the gate's verdict for that site.
#include "common/simd.h"

float opaque(float x); // defined elsewhere: no vector variant exists

void scale_add(float* MQC_RESTRICT a, const float* MQC_RESTRICT b, float s, int n)
{
  // expect: vectorized
  MQC_SIMD
  for (int i = 0; i < n; ++i)
    a[i] += s * b[i];
}

void call_per_lane(float* MQC_RESTRICT a, const float* MQC_RESTRICT b, int n)
{
  // expect: failed
  MQC_SIMD
  for (int i = 0; i < n; ++i) {
    a[i] = opaque(b[i]);
  }
}

template <typename T>
T never_instantiated(const T* MQC_RESTRICT a, int n)
{
  T sum = T(0);
  // expect: uninstantiated
  MQC_SIMD_REDUCTION(+ : sum)
  for (int i = 0; i < n; ++i)
    sum += a[i];
  return sum;
}
