// Deterministic random-number substrate.
//
// QMC is a Monte Carlo method: every walker consumes an independent random
// stream.  The engines are benchmarked on *random* positions ("to imitate the
// random access nature of QMC, each walker generates ns random positions").
// We use xoshiro256** seeded through splitmix64 — fast, tiny state, and every
// walker stream is reproducible from (global seed, walker id), which the test
// suite relies on for cross-layout equivalence checks.  advance(n) jumps a
// stream n draws ahead in O(log n), so one stream can be drawn by several
// threads at once, each from its own offset (the coefficient table fill).
#ifndef MQC_COMMON_RNG_H
#define MQC_COMMON_RNG_H

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace mqc {

/// splitmix64: used only to expand a small seed into xoshiro state.
class SplitMix64
{
public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept
  {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

private:
  std::uint64_t state_;
};

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Xoshiro256
{
public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

  /// Reseed from a single 64-bit value; distinct seeds give uncorrelated
  /// streams for practical purposes (state expanded through splitmix64).
  void reseed(std::uint64_t seed) noexcept
  {
    SplitMix64 sm(seed);
    for (auto& s : state_)
      s = sm.next();
    have_gauss_ = false;
  }

  /// Derive the canonical per-walker stream: seed mixed with the walker id.
  static Xoshiro256 for_stream(std::uint64_t seed, std::uint64_t stream) noexcept
  {
    SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    return Xoshiro256(sm.next());
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~static_cast<result_type>(0); }

  result_type operator()() noexcept
  {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// The complete resumable stream state: the xoshiro words plus the cached
  /// Box–Muller deviate.  gaussian() draws deviates in pairs and caches the
  /// second, so a stream interrupted between the two MUST carry the cache
  /// across a save/restore — dropping it would desynchronize every draw
  /// after the restore point (qmc/checkpoint.cpp round-trips this struct).
  struct State
  {
    std::array<std::uint64_t, 4> s{};
    bool have_gauss = false;
    double cached_gauss = 0.0;
  };

  [[nodiscard]] State state() const noexcept { return State{state_, have_gauss_, cached_gauss_}; }

  void set_state(const State& st) noexcept
  {
    state_ = st.s;
    have_gauss_ = st.have_gauss;
    cached_gauss_ = st.cached_gauss;
  }

  /// A polynomial over GF(2) of degree below 256: bit b of word w is the
  /// coefficient of x^(64w + b).  The state transition T is linear over
  /// GF(2) with characteristic polynomial P(x) = x^256 + kCharPoly, so
  /// P(T) = 0 and T^n = J(T) for J = x^n mod P (Haramoto et al., "Efficient
  /// jump ahead for F2-linear random number generators", INFORMS J. Comput.
  /// 20(3), 2008).  kCharPoly (P's terms below x^256) is the Berlekamp–
  /// Massey polynomial of one state bit's sequence; the reference JUMP
  /// constant is x^(2^128) mod P, which the tests check.
  using JumpPolynomial = std::array<std::uint64_t, 4>;
  static constexpr JumpPolynomial kCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                                               0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

  /// a * b mod P.
  [[nodiscard]] static JumpPolynomial multiply_mod_p(const JumpPolynomial& a,
                                                     const JumpPolynomial& b) noexcept
  {
    JumpPolynomial r{};
    for (int k = 255; k >= 0; --k) {
      r = times_x_mod_p(r);
      if ((b[static_cast<std::size_t>(k / 64)] >> (k % 64)) & 1U)
        for (std::size_t w = 0; w < 4; ++w)
          r[w] ^= a[w];
    }
    return r;
  }

  /// x^n mod P, by square-and-multiply.
  [[nodiscard]] static JumpPolynomial jump_polynomial(std::uint64_t n) noexcept
  {
    JumpPolynomial r{1, 0, 0, 0};
    for (int bit = std::bit_width(n) - 1; bit >= 0; --bit) {
      r = multiply_mod_p(r, r);
      if ((n >> bit) & 1U)
        r = times_x_mod_p(r);
    }
    return r;
  }

  /// Skip @p n raw draws in O(log n): the xoshiro words become exactly what
  /// n operator() calls would leave.  Like those calls, it leaves the cached
  /// Box–Muller deviate as it is, so a gaussian() after advance(n) still
  /// returns the deviate cached before it.  The state is J(T)s for
  /// J = x^n mod P, summed over 256 steps the way the reference jump()
  /// applies its JUMP constant.
  void advance(std::uint64_t n) noexcept
  {
    const JumpPolynomial j = jump_polynomial(n);
    std::array<std::uint64_t, 4> sum{};
    for (std::size_t k = 0; k < 256; ++k) {
      if ((j[k / 64] >> (k % 64)) & 1U)
        for (std::size_t w = 0; w < 4; ++w)
          sum[w] ^= state_[w];
      (void)(*this)();
    }
    state_ = sum;
  }

  /// Derive an independent stream for a spawned walker (DMC birth path).
  /// The child is seeded from the next two raw draws of THIS stream, so it
  /// is a pure function of the parent's state at the split point, and the
  /// parent advances past those draws — parent and child never replay each
  /// other's sequence.  The parent's Box–Muller cache is not inherited: the
  /// child starts on a fresh gaussian phase.
  [[nodiscard]] Xoshiro256 split() noexcept
  {
    const std::uint64_t hi = (*this)();
    const std::uint64_t lo = (*this)();
    SplitMix64 sm(hi ^ (0x94d049bb133111ebULL * (lo | 1)));
    return Xoshiro256(sm.next());
  }

  /// Uniform double in [0,1) with 53 random bits.
  double uniform() noexcept { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box–Muller (second deviate cached).
  double gaussian() noexcept
  {
    if (have_gauss_) {
      have_gauss_ = false;
      return cached_gauss_;
    }
    double u1 = uniform();
    // Guard log(0); uniform() can return exactly 0.
    while (u1 <= 0.0)
      u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    constexpr double two_pi = 6.283185307179586476925286766559;
    cached_gauss_ = r * std::sin(two_pi * u2);
    have_gauss_ = true;
    return r * std::cos(two_pi * u2);
  }

private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept { return (x << k) | (x >> (64 - k)); }

  /// a * x mod P: shift up one degree, folding x^256 back as kCharPoly.
  static JumpPolynomial times_x_mod_p(JumpPolynomial a) noexcept
  {
    const std::uint64_t fold = 0 - (a[3] >> 63);
    for (std::size_t w = 3; w > 0; --w)
      a[w] = (a[w] << 1) | (a[w - 1] >> 63);
    a[0] <<= 1;
    for (std::size_t w = 0; w < 4; ++w)
      a[w] ^= kCharPoly[w] & fold;
    return a;
  }

  std::array<std::uint64_t, 4> state_{};
  bool have_gauss_ = false;
  double cached_gauss_ = 0.0;
};

} // namespace mqc

#endif // MQC_COMMON_RNG_H
