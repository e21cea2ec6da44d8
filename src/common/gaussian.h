// Rng::next_gaussian's stream, produced a row at a time.
//
// next_gaussian runs Marsaglia's polar method one value at a time: a
// data-dependent rejection loop and one scalar libm log per pair. The
// accept/reject decisions depend only on the xoshiro words, never on the
// log, so the stream splits into two batched passes:
//
//  - draws: raw words in blocks of kPolarBlock attempts, each pair of
//    words turned into one attempt (u, v, s) with branch-free arithmetic,
//    and the accepted attempts appended to a carry queue;
//  - transform: m = sqrt(-2 log s / s) over a whole row with a
//    branch-free vector log, then the pair of values u * m, v * m.
//
// The draws are bit-exact: the queue holds exactly next_gaussian's
// accepted (u, v, s), in order. The transform is not: each value is
// within kMaxRelError of next_gaussian's, and exact() recomputes a row
// with next_gaussian's libm expression when a caller needs its bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mmsoc::common {

/// Polar-method attempts per draw block (2 * kPolarBlock xoshiro words).
inline constexpr std::size_t kPolarBlock = 64;

/// Runs the next kPolarBlock polar attempts on `rng`'s words and stores
/// the accepted ones in stream order from index n on: (u, v) at uv[2n],
/// uv[2n + 1] and s = u^2 + v^2 at s[n]. Returns the new count. Both
/// arrays need room for n + kPolarBlock attempts (rejected attempts are
/// written past the count).
std::size_t draw_polar_block(Rng& rng, double* uv, double* s,
                             std::size_t n) noexcept;

/// m[i] = sqrt(-2 log s[i] / s[i]) for normal s[i] in (0, 1), with
/// fdlibm's log polynomial (error < 1 ulp) evaluated branch-free so the
/// loop vectorizes. Within GaussianStream::kMaxRelError of the libm
/// expression.
void polar_scale(const double* s, double* m, std::size_t n) noexcept;

/// The values of Rng(seed).next_gaussian(), in order, a row at a time.
/// Scratch is O(longest row): a row takes the attempts it needs from the
/// carry queue and leaves the rest, including a pair that straddles two
/// rows, for the next one.
class GaussianStream {
 public:
  /// Bound on |next() - exact()| / |exact()| per value. fdlibm's log is
  /// within 1 ulp and libm's within 0.52 ulp; the division, sqrt and
  /// product each add at most half an ulp per side, and the sqrt halves
  /// the log's share: about 5e-16 in all.
  static constexpr double kMaxRelError = 1e-15;

  explicit GaussianStream(std::uint64_t seed) noexcept : rng_(seed) {}

  /// The next n values, each within kMaxRelError of next_gaussian's.
  /// The span stays valid until the next call.
  std::span<const double> next(std::size_t n);

  /// The values of the last next() call, recomputed with next_gaussian's
  /// libm expression on the same (u, v, s): equal to it bit for bit.
  std::span<const double> exact();

 private:
  // Writes the row's values u * m, v * m from m_ into row_.
  void spread();

  Rng rng_;
  std::vector<double> uv_, s_;     // carry queue of accepted attempts
  std::vector<double> m_;          // per-attempt scale of the last row
  std::vector<double> row_;        // values of the last row
  std::size_t head_ = 0;           // first attempt the next row touches
  std::size_t size_ = 0;           // attempts held, [head_, size_) live
  bool half_ = false;              // head_'s u value is already consumed
  std::size_t row_head_ = 0;       // head_ and half_ of the last row
  bool row_half_ = false;
};

}  // namespace mmsoc::common
