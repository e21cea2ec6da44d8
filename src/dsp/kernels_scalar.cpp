// Scalar reference kernels — the bit-exactness oracle for every SIMD
// variant. The loop bodies reproduce the pre-dispatch implementations in
// dct.cpp, quantizer.cpp, filterbank.cpp, motion.cpp, codec.cpp,
// video/source.cpp (the octave blend and sensor-noise rows) and
// common/crc32.cpp exactly; this TU builds with -ffp-contract=off so the
// float summation orders here are the contract, not whatever the
// optimizer fuses.
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/mathutil.h"
#include "common/rng.h"
#include "dsp/kernels.h"

namespace mmsoc::dsp::detail {

std::uint32_t sad16_scalar(const std::uint8_t* a, std::ptrdiff_t a_stride,
                           const std::uint8_t* b, std::ptrdiff_t b_stride) {
  std::uint32_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      sad += static_cast<std::uint32_t>(
          std::abs(static_cast<int>(a[x]) - static_cast<int>(b[x])));
    }
    a += a_stride;
    b += b_stride;
  }
  return sad;
}

void sad16_candidates_scalar(const std::uint8_t* cur,
                             std::ptrdiff_t cur_stride,
                             const std::uint8_t* const* cands,
                             std::ptrdiff_t cand_stride, int n,
                             std::uint32_t* sads) {
  for (int i = 0; i < n; ++i) {
    sads[i] = sad16_scalar(cur, cur_stride, cands[i], cand_stride);
  }
}

namespace {

// One float 1-D pass over all 8 rows: out[y][u] = sum_x basis[u][x]*in[y][x]
// with the per-output accumulation running in x order — the order every
// vector variant must preserve.
void f32_row_pass(const float basis[kDct][kDct], const float* in,
                  float* out) {
  for (int y = 0; y < kDct; ++y) {
    for (int u = 0; u < kDct; ++u) {
      float acc = 0.0f;
      for (int x = 0; x < kDct; ++x) acc += basis[u][x] * in[y * kDct + x];
      out[y * kDct + u] = acc;
    }
  }
}

void f32_col_pass(const float basis[kDct][kDct], const float* in,
                  float* out) {
  for (int x = 0; x < kDct; ++x) {
    float col[kDct], res[kDct];
    for (int y = 0; y < kDct; ++y) col[y] = in[y * kDct + x];
    for (int u = 0; u < kDct; ++u) {
      float acc = 0.0f;
      for (int k = 0; k < kDct; ++k) acc += basis[u][k] * col[k];
      res[u] = acc;
    }
    for (int y = 0; y < kDct; ++y) out[y * kDct + x] = res[y];
  }
}

// Inverse passes read the basis transposed: out[x] = sum_u basis[u][x]*in[u].
void f32_row_pass_t(const float basis[kDct][kDct], const float* in,
                    float* out) {
  for (int y = 0; y < kDct; ++y) {
    for (int x = 0; x < kDct; ++x) {
      float acc = 0.0f;
      for (int u = 0; u < kDct; ++u) acc += basis[u][x] * in[y * kDct + u];
      out[y * kDct + x] = acc;
    }
  }
}

void f32_col_pass_t(const float basis[kDct][kDct], const float* in,
                    float* out) {
  for (int x = 0; x < kDct; ++x) {
    float col[kDct], res[kDct];
    for (int y = 0; y < kDct; ++y) col[y] = in[y * kDct + x];
    for (int o = 0; o < kDct; ++o) {
      float acc = 0.0f;
      for (int u = 0; u < kDct; ++u) acc += basis[u][o] * col[u];
      res[o] = acc;
    }
    for (int y = 0; y < kDct; ++y) out[y * kDct + x] = res[y];
  }
}

}  // namespace

void fdct8x8_f32_scalar(const float* in, float* out) {
  const DctTables& t = dct_tables();
  float tmp[kDct * kDct];
  f32_row_pass(t.c, in, tmp);
  f32_col_pass(t.c, tmp, out);
}

void idct8x8_f32_scalar(const float* in, float* out) {
  const DctTables& t = dct_tables();
  float tmp[kDct * kDct];
  f32_row_pass_t(t.c, in, tmp);
  f32_col_pass_t(t.c, tmp, out);
}

namespace {

// One Q15 1-D pass, 64-bit accumulation, symmetric round on the shift —
// identical to the historical dct8_q15.
void q15_pass(const std::int32_t basis[kDct][kDct], bool transpose,
              const std::int32_t in[kDct], std::int32_t out[kDct],
              unsigned out_shift) {
  for (int u = 0; u < kDct; ++u) {
    std::int64_t acc = 0;
    for (int x = 0; x < kDct; ++x) {
      const std::int32_t b = transpose ? basis[x][u] : basis[u][x];
      acc += static_cast<std::int64_t>(b) * in[x];
    }
    const std::int64_t half = std::int64_t{1} << (out_shift - 1);
    out[u] = static_cast<std::int32_t>((acc + (acc >= 0 ? half : -half)) >>
                                       out_shift);
  }
}

void q15_2d(const std::int16_t* in, std::int16_t* out, bool transpose) {
  const DctTables& t = dct_tables();
  std::int32_t tmp[kDct * kDct];
  for (int y = 0; y < kDct; ++y) {
    std::int32_t row[kDct], res[kDct];
    for (int x = 0; x < kDct; ++x) row[x] = in[y * kDct + x];
    q15_pass(t.q15, transpose, row, res, kQ15RowShift);
    for (int x = 0; x < kDct; ++x) tmp[y * kDct + x] = res[x];
  }
  for (int x = 0; x < kDct; ++x) {
    std::int32_t col[kDct], res[kDct];
    for (int y = 0; y < kDct; ++y) col[y] = tmp[y * kDct + x];
    q15_pass(t.q15, transpose, col, res, kQ15ColShift);
    for (int y = 0; y < kDct; ++y)
      out[y * kDct + x] = common::clamp_s16(res[y]);
  }
}

}  // namespace

void fdct8x8_q15_scalar(const std::int16_t* in, std::int16_t* out) {
  q15_2d(in, out, /*transpose=*/false);
}

void idct8x8_q15_scalar(const std::int16_t* in, std::int16_t* out) {
  q15_2d(in, out, /*transpose=*/true);
}

void quantize64_scalar(const float* coeffs, const float* steps,
                       std::int16_t* levels) {
  for (int i = 0; i < 64; ++i) {
    const float v = coeffs[i] / steps[i];
    const long q = std::lroundf(v);
    levels[i] =
        static_cast<std::int16_t>(std::clamp<long>(q, -32768, 32767));
  }
}

void dequantize64_scalar(const std::int16_t* levels, const float* steps,
                         float* coeffs) {
  for (int i = 0; i < 64; ++i) {
    coeffs[i] = static_cast<float>(levels[i]) * steps[i];
  }
}

// o = clamp_u8(round_half_away(r + p)) over the 64 pixels. t = trunc(v)
// and frac = v - t are exact for every float, so rounding half away from
// zero is one compare per side. Dequantized residuals stay far inside int
// range, so the conversion is defined for any decoded stream. The block's
// prediction is read before its output is written.
void reconstruct8x8_scalar(const float* r, const std::uint8_t* pred,
                           std::ptrdiff_t pred_stride, std::uint8_t* out,
                           std::ptrdiff_t out_stride) {
  std::uint8_t p[kDct * kDct];
  std::uint8_t o[kDct * kDct];
  for (int y = 0; y < kDct; ++y) {
    std::memcpy(p + y * kDct, pred + y * pred_stride, kDct);
  }
  for (int i = 0; i < kDct * kDct; ++i) {
    const float v = r[i] + p[i];
    int t = static_cast<int>(v);
    const float frac = v - static_cast<float>(t);
    t += static_cast<int>(frac >= 0.5f) - static_cast<int>(frac <= -0.5f);
    t = t < 0 ? 0 : t;
    o[i] = static_cast<std::uint8_t>(t > 255 ? 255 : t);
  }
  for (int y = 0; y < kDct; ++y) {
    std::memcpy(out + y * out_stride, o + y * kDct, kDct);
  }
}

void fb_analyze_scalar(const double* x64, double* bands32) {
  const FbTables& t = fb_tables();
  // window[n]*x[n] is one multiply either way; hoisting it out of the k
  // loop reuses the identical product the old per-k evaluation computed.
  double s[kFbWindow];
  for (int n = 0; n < kFbWindow; ++n) s[n] = t.window[n] * x64[n];
  for (int k = 0; k < kFbBands; ++k) {
    double acc = 0.0;
    for (int n = 0; n < kFbWindow; ++n) acc += s[n] * t.basis[k][n];
    bands32[k] = acc;
  }
}

void fb_synth_scalar(const double* bands32, double* y64) {
  const FbTables& t = fb_tables();
  for (int n = 0; n < kFbWindow; ++n) {
    double acc = 0.0;
    for (int k = 0; k < kFbBands; ++k) acc += bands32[k] * t.basis[k][n];
    y64[n] = t.synth_scale[n] * acc;
  }
}

void octave_blend_row_scalar(const double* ca, const double* cb, double csy,
                             const double* fa, const double* fb, double fsy,
                             double brightness, double detail, std::size_t n,
                             double* v) {
  for (std::size_t x = 0; x < n; ++x) {
    v[x] = brightness + detail * (90.0 * (common::lerp(ca[x], cb[x], csy) - 0.5) +
                                  40.0 * (common::lerp(fa[x], fb[x], fsy) - 0.5));
  }
}

// The table lookup is the only input-dependent load; pixels are
// independent, so any variant may run them in any order.
void sensor_noise_row_scalar(const double* v, std::size_t n, double sigma,
                             std::uint64_t counter, const double* table,
                             std::uint8_t* out) {
  for (std::size_t x = 0; x < n; ++x) {
    const double g = table[common::mix64(counter + x) >> 52];
    const double t = (v[x] + sigma * g) + 0.5;
    const int i = static_cast<int>(t);
    out[x] = static_cast<std::uint8_t>(i < 0 ? 0 : (i > 255 ? 255 : i));
  }
}

namespace {

// Slice-by-8 CRC-32 tables: kCrcTables[0] is the classic byte table;
// kCrcTables[k][i] is the CRC of byte i followed by k zero bytes, so
// eight table lookups advance the state by eight bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Little-endian load (compiles to one mov on x86).
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update_scalar(std::uint32_t state, const std::uint8_t* p,
                                  std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace mmsoc::dsp::detail
