// Deterministic PRNG used by all synthetic sources and simulators.
//
// Every experiment in this repo must be reproducible run-to-run, so all
// randomness flows through this explicitly-seeded generator rather than
// std::random_device. SplitMix64 for seeding, xoshiro256** for the stream
// (public-domain algorithms by Blackman & Vigna).
#pragma once

#include <cstdint>
#include <limits>

namespace mmsoc::common {

/// SplitMix64's finalizer: a bijective 64-bit mix in which every input
/// bit affects every output bit. Hashing a counter with it gives a
/// stateless random stream.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Small, fast, explicitly-seeded PRNG. Satisfies UniformRandomBitGenerator
/// so it can also feed <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    // SplitMix64 expansion of the seed into four non-zero lanes.
    std::uint64_t x = seed;
    for (auto& lane : s_) {
      x += 0x9E3779B97F4A7C15ull;
      lane = mix64(x);
    }
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;  // avoid all-zero state
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
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

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free variant is overkill here;
    // 64-bit modulo bias is < 2^-40 for all bounds used in this repo.
    return next() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    if (hi <= lo) return lo;
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double_in(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Standard normal via Marsaglia polar method (deterministic).
  double next_gaussian() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = next_double_in(-1.0, 1.0);
      v = next_double_in(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = sqrt_impl(-2.0 * log_impl(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

  /// Bernoulli draw with probability p of returning true.
  bool next_bool(double p) noexcept { return next_double() < p; }

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  // Tiny wrappers keep <cmath> out of this hot header's interface.
  static double sqrt_impl(double x) noexcept;
  static double log_impl(double x) noexcept;
};

inline double Rng::sqrt_impl(double x) noexcept {
  return __builtin_sqrt(x);
}
inline double Rng::log_impl(double x) noexcept {
  return __builtin_log(x);
}

}  // namespace mmsoc::common
