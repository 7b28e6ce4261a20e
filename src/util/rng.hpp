#pragma once
// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library (genome simulation, read
// sampling, error injection, mixture-model initialization) draw from
// ngs::util::Rng so that every experiment is reproducible from a single
// 64-bit seed. The generator is xoshiro256**, seeded via SplitMix64,
// which is both faster and statistically stronger than std::mt19937_64.

#include <array>
#include <cmath>
#include <cstdint>

namespace ngs::util {

/// SplitMix64 step; used for seeding and as a standalone mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d2c5680u) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
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

  /// Uniform in [0, n). Lemire's multiply-shift rejection method.
  std::uint64_t below(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Log-normal with given log-space mean/stddev.
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Gamma(shape, scale) via Marsaglia–Tsang.
  double gamma(double shape, double scale) noexcept {
    if (shape < 1.0) {
      const double u = uniform();
      return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x, v;
      do {
        x = normal();
        v = 1.0 + c * x;
      } while (v <= 0.0);
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v * scale;
      }
    }
  }

  /// Derive an independent child generator (for per-thread streams).
  Rng split() noexcept {
    return Rng((*this)() ^ 0xa02bdbf7bb3c0a7ULL);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace ngs::util
