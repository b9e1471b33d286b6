#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace dana {

/// Deterministic xorshift128+ pseudo-random generator.
///
/// Used everywhere in the repo instead of std::mt19937 so dataset generation
/// and the experiment harness are reproducible bit-for-bit across platforms
/// and standard-library implementations.
class Rng {
 public:
  /// Seeds the generator; the same seed yields the same stream everywhere.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 expansion of the seed into the two lanes.
    s_[0] = SplitMix(seed);
    s_[1] = SplitMix(s_[0]);
  }

  /// Next raw 64-bit value.
  uint64_t Next64() {
    uint64_t x = s_[0];
    const uint64_t y = s_[1];
    s_[0] = y;
    x ^= x << 23;
    s_[1] = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s_[1] + y;
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    return static_cast<double>(Next64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n).
  uint64_t UniformInt(uint64_t n) { return n == 0 ? 0 : Next64() % n; }

  /// Standard normal via Box-Muller; always exactly two Next64 draws
  /// (ml::GenerateDataset positions its row blocks by this count).
  double Gaussian() {
    double u1 = Uniform();
    double u2 = Uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Bernoulli with probability p; one Next64 draw.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Leaves the generator where `n` calls to Next64 would, in O(log n) time.
  /// The step is linear over GF(2), so n steps are the polynomial
  /// x^n mod P(x), P the step's characteristic polynomial, evaluated at the
  /// step: the XOR of the states after j steps for each coefficient j of it.
  void Discard(uint64_t n) {
    Poly r{{1, 0}};  // x^n mod P, by square-and-multiply over n's bits
    for (int bit = static_cast<int>(std::bit_width(n)) - 1; bit >= 0; --bit) {
      r = MulMod(r, r);
      if ((n >> bit) & 1) r = TimesX(r);
    }
    uint64_t jumped[2] = {0, 0};
    for (int j = 0; j < 128; ++j) {
      if ((r.w[j / 64] >> (j % 64)) & 1) {
        jumped[0] ^= s_[0];
        jumped[1] ^= s_[1];
      }
      Next64();
    }
    s_[0] = jumped[0];
    s_[1] = jumped[1];
  }

 private:
  /// A polynomial over GF(2) of degree < 128; bit j of w[j / 64] is the
  /// coefficient of x^j.
  struct Poly {
    uint64_t w[2];
  };

  /// P(x) - x^128, for Next64's step (shifts 23, 17, 26). Found by
  /// Berlekamp-Massey over the low bit of s_[0]; the minimal polynomial has
  /// degree 128, the state's width, so it is the characteristic polynomial.
  static constexpr Poly kStepPoly{
      {0xbd82fd40e01730f9ull, 0x01f9f801f6fd0098ull}};

  static Poly TimesX(Poly a) {
    const bool carry = (a.w[1] >> 63) != 0;
    a.w[1] = (a.w[1] << 1) | (a.w[0] >> 63);
    a.w[0] <<= 1;
    if (carry) {
      a.w[0] ^= kStepPoly.w[0];
      a.w[1] ^= kStepPoly.w[1];
    }
    return a;
  }

  static Poly MulMod(Poly a, Poly b) {
    Poly r{{0, 0}};
    for (int j = 127; j >= 0; --j) {
      r = TimesX(r);
      if ((b.w[j / 64] >> (j % 64)) & 1) {
        r.w[0] ^= a.w[0];
        r.w[1] ^= a.w[1];
      }
    }
    return r;
  }

  static uint64_t SplitMix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  uint64_t s_[2];
};

}  // namespace dana
