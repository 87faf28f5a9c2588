// Deterministic, stream-splittable random number generation.
//
// Experiment sweeps run cells in parallel on a thread pool; every cell
// derives its own Rng from (base_seed, cell identifiers) so the results are
// bit-identical regardless of thread schedule. The core generator is
// xoshiro256** seeded via SplitMix64, both public-domain algorithms.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <numbers>

#include "common/assert.hpp"

namespace gs {

/// SplitMix64 step: used for seeding and for hashing stream identifiers.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with distribution helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d2c5680u) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  /// Derive an independent stream from a base seed and a list of
  /// identifiers (e.g. {cell_index, server_index}).
  static Rng stream(std::uint64_t base,
                    std::initializer_list<std::uint64_t> ids) {
    std::uint64_t h = base;
    for (std::uint64_t id : ids) {
      h ^= splitmix64(id) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return Rng(h);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return double((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n) {
    GS_REQUIRE(n > 0, "uniform_int needs n > 0");
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = (*this)();
    __uint128_t m = __uint128_t(x) * __uint128_t(n);
    auto lo = std::uint64_t(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = (*this)();
        m = __uint128_t(x) * __uint128_t(n);
        lo = std::uint64_t(m);
      }
    }
    return std::uint64_t(m >> 64);
  }

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) {
    GS_REQUIRE(rate > 0.0, "exponential needs rate > 0");
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
  }

  /// Standard normal via Box–Muller.
  double normal() {
    double u1;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Poisson count (Knuth for small means, normal approximation for large).
  std::uint64_t poisson(double mean) {
    GS_REQUIRE(mean >= 0.0, "poisson needs mean >= 0");
    if (mean == 0.0) return 0;
    if (mean < 64.0) {
      const double limit = std::exp(-mean);
      double prod = uniform();
      std::uint64_t n = 0;
      while (prod > limit) {
        prod *= uniform();
        ++n;
      }
      return n;
    }
    const double x = normal(mean, std::sqrt(mean));
    return x <= 0.0 ? 0 : std::uint64_t(x + 0.5);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace gs
