#include "common/gaussian.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace mmsoc::common {
namespace {

// next_double_in(-1, 1) of word w, -1 + 2 * ((w >> 11) * 2^-53), without
// an int64 -> double conversion (SSE2 and AVX2 have none). With x = w >> 11
// = b * 2^52 + low, the value is b + low * 2^-52 - 1. The low 52 bits under
// 1.0's exponent give 1 + low * 2^-52, and the top bit b picks 2 - b from
// the exponents of 2.0 and 1.0, which differ by 1 << 52. The subtraction
// is exact (Sterbenz), so the result is next_double_in's bit for bit.
inline double signed_unit(std::uint64_t w) noexcept {
  const double one_low = std::bit_cast<double>(
      0x3FF0000000000000ull | ((w >> 11) & 0x000FFFFFFFFFFFFFull));
  const double two_less_b =
      std::bit_cast<double>(0x4000000000000000ull - ((w >> 63) << 52));
  return one_low - two_less_b;
}

// log(x) for positive normal x: fdlibm's e_log.c (error < 1 ulp) without
// its special cases, so it is branch-free. x is reduced to 2^k * (1 + f)
// with 1 + f in [sqrt(2)/2, sqrt(2)); k becomes a double through the 2^52
// magic constant, as there is no vector int64 -> double conversion.
inline double fast_log(double x) noexcept {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  constexpr std::uint64_t kSqrtHalf = 0x3FE6A09E00000000ull;  // high word
  const std::uint64_t ix =
      std::bit_cast<std::uint64_t>(x) + (0x3FF0000000000000ull - kSqrtHalf);
  const double dk = std::bit_cast<double>(0x4330000000000000ull | (ix >> 52)) -
                    (0x1.0p52 + 1023.0);
  const double f =
      std::bit_cast<double>((ix & 0x000FFFFFFFFFFFFFull) + kSqrtHalf) - 1.0;
  const double hfsq = 0.5 * f * f;
  const double q = f / (2.0 + f);
  const double z = q * q;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  return q * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

}  // namespace

std::size_t draw_polar_block(Rng& rng, double* uv, double* s,
                             std::size_t n) noexcept {
  // A local copy keeps the xoshiro state in registers while the words
  // are stored.
  Rng local = rng;
  std::uint64_t words[2 * kPolarBlock];
  for (auto& w : words) w = local.next();
  rng = local;

  double unit[2 * kPolarBlock];  // u, v of each attempt
  for (std::size_t i = 0; i < 2 * kPolarBlock; ++i)
    unit[i] = signed_unit(words[i]);
  double ss[kPolarBlock];
  for (std::size_t i = 0; i < kPolarBlock; ++i)
    ss[i] = unit[2 * i] * unit[2 * i] + unit[2 * i + 1] * unit[2 * i + 1];
  // The accept flag as a double: GCC vectorizes a double compare into a
  // double, not into an integer.
  double keep[kPolarBlock];
  for (std::size_t i = 0; i < kPolarBlock; ++i)
    keep[i] = (ss[i] < 1.0 && ss[i] != 0.0) ? 1.0 : 0.0;

  // Every attempt is stored; only an accepted one advances the count.
  for (std::size_t i = 0; i < kPolarBlock; ++i) {
    uv[2 * n] = unit[2 * i];
    uv[2 * n + 1] = unit[2 * i + 1];
    s[n] = ss[i];
    n += static_cast<std::size_t>(keep[i]);
  }
  return n;
}

void polar_scale(const double* s, double* m, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i)
    m[i] = std::sqrt(-2.0 * fast_log(s[i]) / s[i]);
}

std::span<const double> GaussianStream::next(std::size_t n) {
  const std::size_t lead = half_ ? 1 : 0;
  const std::size_t pairs = (lead + n + 1) / 2;  // attempts the row touches
  if (s_.size() < pairs + kPolarBlock) {
    uv_.resize(2 * (pairs + kPolarBlock));
    s_.resize(pairs + kPolarBlock);
  }
  m_.resize(pairs);
  row_.resize(n);
  while (size_ - head_ < pairs) {
    if (size_ + kPolarBlock > s_.size()) {
      // Fewer than `pairs` attempts are live, so after the move a whole
      // block fits.
      std::copy(uv_.begin() + static_cast<std::ptrdiff_t>(2 * head_),
                uv_.begin() + static_cast<std::ptrdiff_t>(2 * size_), uv_.begin());
      std::copy(s_.begin() + static_cast<std::ptrdiff_t>(head_),
                s_.begin() + static_cast<std::ptrdiff_t>(size_), s_.begin());
      size_ -= head_;
      head_ = 0;
    }
    size_ = draw_polar_block(rng_, uv_.data(), s_.data(), size_);
  }
  polar_scale(s_.data() + head_, m_.data(), pairs);
  row_head_ = head_;
  row_half_ = half_;
  spread();
  head_ += (lead + n) / 2;
  half_ = ((lead + n) & 1) != 0;
  return row_;
}

std::span<const double> GaussianStream::exact() {
  const std::size_t pairs = ((row_half_ ? 1 : 0) + row_.size() + 1) / 2;
  const double* s = s_.data() + row_head_;
  for (std::size_t j = 0; j < pairs; ++j)
    m_[j] = std::sqrt(-2.0 * std::log(s[j]) / s[j]);
  spread();
  return row_;
}

void GaussianStream::spread() {
  const std::size_t n = row_.size();
  const double* __restrict uv = uv_.data() + 2 * row_head_;
  const double* __restrict m = m_.data();
  double* __restrict out = row_.data();
  // A row that starts with the v value of a pair begun last row is the
  // pairs' values shifted by one.
  const std::size_t lead = (row_half_ && n > 0) ? 1 : 0;
  if (lead) out[0] = uv[1] * m[0];
  const std::size_t whole = (n - lead) / 2;
  for (std::size_t j = 0; j < whole; ++j) {
    out[lead + 2 * j] = uv[2 * (lead + j)] * m[lead + j];
    out[lead + 2 * j + 1] = uv[2 * (lead + j) + 1] * m[lead + j];
  }
  // A lone u value ends the row; its v value starts the next one.
  if (lead + 2 * whole < n) out[n - 1] = uv[2 * (lead + whole)] * m[lead + whole];
}

}  // namespace mmsoc::common
