// Small math helpers shared across codecs and simulators.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>

namespace mmsoc::common {

/// Clamp to the representable range of an 8-bit sample.
[[nodiscard]] constexpr std::uint8_t clamp_u8(int v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}

/// Clamp to a signed 16-bit PCM sample.
[[nodiscard]] constexpr std::int16_t clamp_s16(int v) noexcept {
  return static_cast<std::int16_t>(std::clamp(v, -32768, 32767));
}

/// std::lround for floats in int range, without the libm call: round half
/// away from zero. In double, x + copysign(0.5, x) is exact for every float
/// with |x| >= 2^-29 and truncates to 0 below that, so this matches lround.
[[nodiscard]] inline int round_half_away(float x) noexcept {
  const double d = static_cast<double>(x);
  return static_cast<int>(d + std::copysign(0.5, d));
}

/// Integer log2 floor; ilog2(0) == 0 by convention.
[[nodiscard]] constexpr unsigned ilog2(std::uint64_t v) noexcept {
  unsigned r = 0;
  while (v >>= 1) ++r;
  return r;
}

/// True if v is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Round up to the next multiple of `align` (align must be nonzero).
[[nodiscard]] constexpr std::size_t round_up(std::size_t v,
                                             std::size_t align) noexcept {
  return ((v + align - 1) / align) * align;
}

/// Ceiling division for nonnegative integers.
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a,
                                              std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Mean of a span of doubles (0 for empty spans).
[[nodiscard]] inline double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Population variance of a span of doubles (0 for empty spans).
[[nodiscard]] inline double variance(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (const double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

/// Convert a power ratio to decibels; floors tiny ratios to avoid -inf.
[[nodiscard]] inline double to_db(double power_ratio) noexcept {
  constexpr double kFloor = 1e-12;
  return 10.0 * std::log10(std::max(power_ratio, kFloor));
}

/// Linear interpolation.
[[nodiscard]] constexpr double lerp(double a, double b, double t) noexcept {
  return a + (b - a) * t;
}

inline constexpr double kPi = std::numbers::pi;

}  // namespace mmsoc::common
