// AVX2 kernel variants. Built with -mavx2 -mpclmul -ffp-contract=off;
// compiles away unless x86 SIMD dispatch is enabled. No code in this TU runs before
// dispatch.cpp has checked CPUID: the exported table is constant-
// initialized from function addresses only. The functions outside the
// anonymous namespaces also fill the AVX-512 table's unported slots.
//
// Same bit-exactness scheme as the SSE2 TU (see that file and dispatch.h);
// AVX2 just gives full-width lanes: one 256-bit vector covers all 8
// outputs of a DCT pass, vpmuldq provides the signed 32x32->64 multiply
// directly, and psadbw handles two pixel rows per instruction.
// reconstruct8x8 rounds with the quantizer's lround8_avx2, exact for every
// float inside int range. sensor_noise_row hashes four counters per
// vector (a 64-bit multiply from three 32x32->64 partial products) and
// gathers their table entries; octave_blend_row blends four pixels per
// vector; crc32_update folds 64 bytes per step with
// PCLMULQDQ, which the AVX2 level's CPU check also requires.
#if defined(MMSOC_SIMD_X86) && defined(__AVX2__)

#include <immintrin.h>

#include "dsp/kernels.h"

namespace mmsoc::dsp::detail {

// The current window stays in 8 registers, two rows each, for the whole
// batch; two accumulators halve each candidate's add chain.
void sad16_candidates_avx2(const std::uint8_t* cur, std::ptrdiff_t cur_stride,
                           const std::uint8_t* const* cands,
                           std::ptrdiff_t cand_stride, int n,
                           std::uint32_t* sads) {
  const auto rows = [](const std::uint8_t* p, std::ptrdiff_t stride) {
    return _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + stride)), 1);
  };
  __m256i c[8];
  for (int y = 0; y < 8; ++y) c[y] = rows(cur + 2 * y * cur_stride, cur_stride);
  for (int i = 0; i < n; ++i) {
    const std::uint8_t* b = cands[i];
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (int y = 0; y < 8; y += 2) {
      acc0 = _mm256_add_epi64(acc0, _mm256_sad_epu8(c[y], rows(b, cand_stride)));
      acc1 = _mm256_add_epi64(
          acc1, _mm256_sad_epu8(c[y + 1], rows(b + 2 * cand_stride, cand_stride)));
      b += 4 * cand_stride;
    }
    const __m256i acc = _mm256_add_epi64(acc0, acc1);
    const __m128i sum = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                      _mm256_extracti128_si256(acc, 1));
    sads[i] = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(sum) + _mm_cvtsi128_si32(_mm_srli_si128(sum, 8)));
  }
}

std::uint32_t sad16_avx2(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride) {
  std::uint32_t sad = 0;
  sad16_candidates_avx2(a, a_stride, &b, b_stride, 1, &sad);
  return sad;
}

namespace {

// One float 1-D pass: all 8 outputs in one vector; per-lane op sequence
// identical to scalar (broadcast input x, multiply by its basis column,
// add — in x order).
inline void f32_pass8_avx2(const float (*cols)[8], const float* in,
                           int in_step, float* out8) {
  __m256 acc = _mm256_setzero_ps();
  for (int x = 0; x < 8; ++x) {
    const __m256 v = _mm256_set1_ps(in[x * in_step]);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_load_ps(cols[x]), v));
  }
  _mm256_storeu_ps(out8, acc);
}

void f32_2d_avx2(const float (*cols)[8], const float* in, float* out) {
  float tmp[64];
  for (int y = 0; y < 8; ++y) f32_pass8_avx2(cols, in + y * 8, 1, tmp + y * 8);
  for (int x = 0; x < 8; ++x) {
    float res[8];
    f32_pass8_avx2(cols, tmp + x, 8, res);
    for (int y = 0; y < 8; ++y) out[y * 8 + x] = res[y];
  }
}

void fdct8x8_f32_avx2(const float* in, float* out) {
  f32_2d_avx2(dct_tables().c_t, in, out);
}

void idct8x8_f32_avx2(const float* in, float* out) {
  f32_2d_avx2(dct_tables().c, in, out);
}

// Q15 1-D pass with 64-bit accumulation (exactly the scalar int64 math).
inline void q15_pass8_avx2(const std::int64_t (*cols)[8],
                           const std::int32_t in[8], std::int32_t out[8],
                           unsigned out_shift) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  for (int x = 0; x < 8; ++x) {
    const __m256i v = _mm256_set1_epi64x(in[x]);
    const __m256i* c = reinterpret_cast<const __m256i*>(cols[x]);
    acc0 = _mm256_add_epi64(acc0,
                            _mm256_mul_epi32(_mm256_load_si256(c + 0), v));
    acc1 = _mm256_add_epi64(acc1,
                            _mm256_mul_epi32(_mm256_load_si256(c + 1), v));
  }
  alignas(32) std::int64_t accs[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(accs + 0), acc0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(accs + 4), acc1);
  const std::int64_t half = std::int64_t{1} << (out_shift - 1);
  for (int u = 0; u < 8; ++u) {
    const std::int64_t acc = accs[u];
    out[u] = static_cast<std::int32_t>((acc + (acc >= 0 ? half : -half)) >>
                                       out_shift);
  }
}

void q15_2d_avx2(const std::int64_t (*cols)[8], const std::int16_t* in,
                 std::int16_t* out) {
  std::int32_t tmp[64];
  for (int y = 0; y < 8; ++y) {
    std::int32_t row[8], res[8];
    for (int x = 0; x < 8; ++x) row[x] = in[y * 8 + x];
    q15_pass8_avx2(cols, row, res, kQ15RowShift);
    for (int x = 0; x < 8; ++x) tmp[y * 8 + x] = res[x];
  }
  for (int x = 0; x < 8; ++x) {
    std::int32_t col[8], res[8];
    for (int y = 0; y < 8; ++y) col[y] = tmp[y * 8 + x];
    q15_pass8_avx2(cols, col, res, kQ15ColShift);
    for (int y = 0; y < 8; ++y) {
      const std::int32_t v = res[y];
      out[y * 8 + x] = static_cast<std::int16_t>(
          v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
    }
  }
}

}  // namespace

void fdct8x8_q15_avx2(const std::int16_t* in, std::int16_t* out) {
  q15_2d_avx2(dct_tables().q15_fwd, in, out);
}

void idct8x8_q15_avx2(const std::int16_t* in, std::int16_t* out) {
  q15_2d_avx2(dct_tables().q15_inv, in, out);
}

namespace {

// lroundf emulation for 8 floats (see the SSE2 TU for the derivation).
inline __m256i lround8_avx2(__m256 v) {
  const __m256i trunc = _mm256_cvttps_epi32(v);
  const __m256 frac = _mm256_sub_ps(v, _mm256_cvtepi32_ps(trunc));
  const __m256i up = _mm256_castps_si256(
      _mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ));
  const __m256i down = _mm256_castps_si256(
      _mm256_cmp_ps(frac, _mm256_set1_ps(-0.5f), _CMP_LE_OQ));
  return _mm256_add_epi32(_mm256_sub_epi32(trunc, up), down);
}

}  // namespace

void quantize64_avx2(const float* coeffs, const float* steps,
                     std::int16_t* levels) {
  for (int i = 0; i < 64; i += 16) {
    const __m256i q0 = lround8_avx2(_mm256_div_ps(
        _mm256_loadu_ps(coeffs + i), _mm256_loadu_ps(steps + i)));
    const __m256i q1 = lround8_avx2(_mm256_div_ps(
        _mm256_loadu_ps(coeffs + i + 8), _mm256_loadu_ps(steps + i + 8)));
    // packs saturates per 128-bit lane; permute restores linear order.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(q0, q1), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(levels + i), packed);
  }
}

void dequantize64_avx2(const std::int16_t* levels, const float* steps,
                       float* coeffs) {
  for (int i = 0; i < 64; i += 8) {
    const __m256i lv = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(levels + i)));
    _mm256_storeu_ps(coeffs + i, _mm256_mul_ps(_mm256_cvtepi32_ps(lv),
                                               _mm256_loadu_ps(steps + i)));
  }
}

// Four rows per step, one row per vector: the 8 prediction bytes widen
// to floats, add the residual and round; the saturating packs interleave
// the four rows by 128-bit lane, and one dword permute restores row order.
void reconstruct8x8_avx2(const float* r, const std::uint8_t* pred,
                         std::ptrdiff_t pred_stride, std::uint8_t* out,
                         std::ptrdiff_t out_stride) {
  __m128i p[8];
  for (int y = 0; y < 8; ++y) {
    p[y] = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(pred + y * pred_stride));
  }
  const auto row = [&](int y) {
    const __m256 pf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(p[y]));
    return lround8_avx2(_mm256_add_ps(_mm256_loadu_ps(r + 8 * y), pf));
  };
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (int y = 0; y < 8; y += 4) {
    const __m256i o = _mm256_permutevar8x32_epi32(
        _mm256_packus_epi16(_mm256_packs_epi32(row(y), row(y + 1)),
                            _mm256_packs_epi32(row(y + 2), row(y + 3))),
        order);
    const __m128i lo = _mm256_castsi256_si128(o);
    const __m128i hi = _mm256_extracti128_si256(o, 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + y * out_stride), lo);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (y + 1) * out_stride),
                     _mm_srli_si128(lo, 8));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (y + 2) * out_stride), hi);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (y + 3) * out_stride),
                     _mm_srli_si128(hi, 8));
  }
}

void fb_analyze_avx2(const double* x64, double* bands32) {
  const FbTables& t = fb_tables();
  alignas(32) double s[64];
  for (int n = 0; n < 64; n += 4) {
    _mm256_store_pd(s + n, _mm256_mul_pd(_mm256_load_pd(t.window + n),
                                         _mm256_loadu_pd(x64 + n)));
  }
  __m256d acc[8];
  for (auto& a : acc) a = _mm256_setzero_pd();
  for (int n = 0; n < 64; ++n) {
    const __m256d v = _mm256_set1_pd(s[n]);
    const double* bt = t.basis_t[n];
    for (int j = 0; j < 8; ++j) {
      acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(_mm256_load_pd(bt + 4 * j), v));
    }
  }
  for (int j = 0; j < 8; ++j) _mm256_storeu_pd(bands32 + 4 * j, acc[j]);
}

void fb_synth_avx2(const double* bands32, double* y64) {
  const FbTables& t = fb_tables();
  for (int n0 = 0; n0 < 64; n0 += 16) {
    __m256d acc[4];
    for (auto& a : acc) a = _mm256_setzero_pd();
    for (int k = 0; k < 32; ++k) {
      const __m256d v = _mm256_set1_pd(bands32[k]);
      const double* b = t.basis[k] + n0;
      for (int j = 0; j < 4; ++j) {
        acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(_mm256_load_pd(b + 4 * j), v));
      }
    }
    for (int j = 0; j < 4; ++j) {
      _mm256_storeu_pd(
          y64 + n0 + 4 * j,
          _mm256_mul_pd(_mm256_load_pd(t.synth_scale + n0 + 4 * j), acc[j]));
    }
  }
}

namespace {

// Low 64 bits of a * b in each lane, b a constant split into 32-bit
// halves: lo(a)lo(b) + (hi(a)lo(b) + lo(a)hi(b)) << 32. The hi * hi
// product only reaches bits 64 and up.
inline __m256i mullo64_avx2(__m256i a, __m256i b_lo, __m256i b_hi) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b_lo),
                          _mm256_slli_epi64(cross, 32));
}

// Four pixels: t = (v + sigma * g) + 0.5 with g gathered at the top 12
// bits of common::mix64(counter); mix64's last step, z ^ (z >> 31), does
// not touch those bits. cvttpd truncates like the scalar int conversion.
class NoiseQuad {
 public:
  NoiseQuad(double sigma, std::uint64_t counter, const double* table)
      : sigma_(_mm256_set1_pd(sigma)),
        counter_(_mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(counter)),
                                  _mm256_setr_epi64x(0, 1, 2, 3))),
        table_(table) {}

  __m128i next(const double* v) {
    __m256i z = counter_;
    counter_ = _mm256_add_epi64(counter_, _mm256_set1_epi64x(4));
    z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), k1_lo_, k1_hi_);
    z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), k2_lo_, k2_hi_);
    const __m256d g = _mm256_i64gather_pd(table_, _mm256_srli_epi64(z, 52), 8);
    const __m256d t = _mm256_add_pd(
        _mm256_add_pd(_mm256_loadu_pd(v), _mm256_mul_pd(sigma_, g)),
        _mm256_set1_pd(0.5));
    return _mm256_cvttpd_epi32(t);
  }

 private:
  static constexpr std::uint64_t kMul1 = 0xBF58476D1CE4E5B9ull;
  static constexpr std::uint64_t kMul2 = 0x94D049BB133111EBull;
  const __m256i k1_lo_ = _mm256_set1_epi64x(static_cast<long long>(kMul1 & 0xFFFFFFFFu));
  const __m256i k1_hi_ = _mm256_set1_epi64x(static_cast<long long>(kMul1 >> 32));
  const __m256i k2_lo_ = _mm256_set1_epi64x(static_cast<long long>(kMul2 & 0xFFFFFFFFu));
  const __m256i k2_hi_ = _mm256_set1_epi64x(static_cast<long long>(kMul2 >> 32));
  __m256d sigma_;
  __m256i counter_;
  const double* table_;
};

// Sixteen pixels per step, saturated to bytes by packs (int32 -> int16)
// then packus (int16 -> uint8); the last n % 16 run the scalar row.
void sensor_noise_row_avx2(const double* v, std::size_t n, double sigma,
                           std::uint64_t counter, const double* table,
                           std::uint8_t* out) {
  NoiseQuad quad(sigma, counter, table);
  std::size_t x = 0;
  for (; x + 16 <= n; x += 16) {
    const __m128i a = quad.next(v + x);
    const __m128i b = quad.next(v + x + 4);
    const __m128i c = quad.next(v + x + 8);
    const __m128i d = quad.next(v + x + 12);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                     _mm_packus_epi16(_mm_packs_epi32(a, b), _mm_packs_epi32(c, d)));
  }
  sensor_noise_row_scalar(v + x, n - x, sigma, counter + x, table, out + x);
}

// CRC-32 of a whole number of 16-byte blocks, at least 64 bytes, by
// carry-less multiplication: four 128-bit lanes fold 64 bytes per step,
// fold into one lane, then 128 -> 64 -> 32 bits and a Barrett reduction.
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009); the bit-reflected constants are
// the ones zlib's crc32_simd uses. `state` is the CRC register.
std::uint32_t crc32_fold_pclmul(std::uint32_t state, const std::uint8_t* p,
                                std::size_t n) {
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // fold(x, k, y) = x.lo * k.lo ^ x.hi * k.hi ^ y.
  const auto fold = [](__m128i x, __m128i k, __m128i y) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         y);
  };
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

// Four pixels per step, each lane in the scalar order; the last n % 4 run
// the scalar row.
void octave_blend_row_avx2(const double* ca, const double* cb, double csy,
                           const double* fa, const double* fb, double fsy,
                           double brightness, double detail, std::size_t n,
                           double* v) {
  const __m256d half = _mm256_set1_pd(0.5);
  const auto lerp = [](__m256d a, __m256d b, __m256d t) {
    return _mm256_add_pd(a, _mm256_mul_pd(_mm256_sub_pd(b, a), t));
  };
  const __m256d cs = _mm256_set1_pd(csy), fs = _mm256_set1_pd(fsy);
  const __m256d k90 = _mm256_set1_pd(90.0), k40 = _mm256_set1_pd(40.0);
  const __m256d b = _mm256_set1_pd(brightness), d = _mm256_set1_pd(detail);
  std::size_t x = 0;
  for (; x + 4 <= n; x += 4) {
    const __m256d c = lerp(_mm256_loadu_pd(ca + x), _mm256_loadu_pd(cb + x), cs);
    const __m256d f = lerp(_mm256_loadu_pd(fa + x), _mm256_loadu_pd(fb + x), fs);
    const __m256d tex =
        _mm256_add_pd(_mm256_mul_pd(k90, _mm256_sub_pd(c, half)),
                      _mm256_mul_pd(k40, _mm256_sub_pd(f, half)));
    _mm256_storeu_pd(v + x, _mm256_add_pd(b, _mm256_mul_pd(d, tex)));
  }
  octave_blend_row_scalar(ca + x, cb + x, csy, fa + x, fb + x, fsy, brightness,
                          detail, n - x, v + x);
}

}  // namespace

// Inputs under 64 bytes and the last n % 16 bytes take the table path.
std::uint32_t crc32_update_avx2(std::uint32_t state, const std::uint8_t* p,
                                std::size_t n) {
  if (n < 64) return crc32_update_scalar(state, p, n);
  const std::size_t folded = n & ~std::size_t{15};
  state = crc32_fold_pclmul(state, p, folded);
  return crc32_update_scalar(state, p + folded, n - folded);
}

const KernelTable kKernelsAvx2 = {
    .level = SimdLevel::kAvx2,
    .sad16 = &sad16_avx2,
    .sad16_candidates = &sad16_candidates_avx2,
    .fdct8x8_f32 = &fdct8x8_f32_avx2,
    .idct8x8_f32 = &idct8x8_f32_avx2,
    .fdct8x8_q15 = &fdct8x8_q15_avx2,
    .idct8x8_q15 = &idct8x8_q15_avx2,
    .quantize64 = &quantize64_avx2,
    .dequantize64 = &dequantize64_avx2,
    .reconstruct8x8 = &reconstruct8x8_avx2,
    .octave_blend_row = &octave_blend_row_avx2,
    .sensor_noise_row = &sensor_noise_row_avx2,
    .crc32_update = &crc32_update_avx2,
    .fb_analyze = &fb_analyze_avx2,
    .fb_synth = &fb_synth_avx2};

}  // namespace mmsoc::dsp::detail

#endif  // MMSOC_SIMD_X86 && __AVX2__
