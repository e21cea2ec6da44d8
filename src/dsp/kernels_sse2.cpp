// SSE2 kernel variants. Built with -msse2 -ffp-contract=off; the whole TU
// compiles away unless the build enables x86 SIMD dispatch.
//
// Bit-exactness notes (see dispatch.h for the contract):
//  - sad16, sad16_candidates: psadbw — integer, any association is exact.
//  - float DCT: vectorized ACROSS the 8 outputs of each 1-D pass, so each
//    output lane performs the same mul/add sequence as scalar.
//  - Q15 DCT: 32x32->64 multiplies with 64-bit accumulation, matching the
//    scalar int64 math exactly for all int16 inputs. SSE2 has no signed
//    32x32->64 multiply, so pmuludq plus a sign correction reconstructs it.
//  - quantize64: emulates lroundf with truncate + exact-fraction compare
//    (the fraction v - trunc(v) is exact by Sterbenz for |v| < 2^24).
//  - reconstruct8x8: the same rounding on r + p, whose fraction is exact
//    for every float inside int range; the two saturating packs clamp to
//    [0, 255] exactly as the scalar clamp does.
#if defined(MMSOC_SIMD_X86) && defined(__SSE2__)

#include <emmintrin.h>

#include "dsp/kernels.h"

namespace mmsoc::dsp::detail {
namespace {

// The current window stays in 16 registers (or their spill slots) for
// the whole batch; two accumulators halve each candidate's add chain.
void sad16_candidates_sse2(const std::uint8_t* cur, std::ptrdiff_t cur_stride,
                           const std::uint8_t* const* cands,
                           std::ptrdiff_t cand_stride, int n,
                           std::uint32_t* sads) {
  __m128i c[16];
  for (int y = 0; y < 16; ++y) {
    c[y] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + y * cur_stride));
  }
  for (int i = 0; i < n; ++i) {
    const std::uint8_t* b = cands[i];
    __m128i acc0 = _mm_setzero_si128();
    __m128i acc1 = _mm_setzero_si128();
    for (int y = 0; y < 16; y += 2) {
      acc0 = _mm_add_epi64(
          acc0, _mm_sad_epu8(c[y], _mm_loadu_si128(
                                       reinterpret_cast<const __m128i*>(b))));
      acc1 = _mm_add_epi64(
          acc1, _mm_sad_epu8(c[y + 1],
                             _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                 b + cand_stride))));
      b += 2 * cand_stride;
    }
    const __m128i acc = _mm_add_epi64(acc0, acc1);
    sads[i] = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(acc) + _mm_cvtsi128_si32(_mm_srli_si128(acc, 8)));
  }
}

std::uint32_t sad16_sse2(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride) {
  std::uint32_t sad = 0;
  sad16_candidates_sse2(a, a_stride, &b, b_stride, 1, &sad);
  return sad;
}

// One float 1-D pass over the 8 lanes of one row: for every input element
// (in row-traversal order) broadcast it and multiply by the basis column
// holding that element's contribution to all 8 outputs. Each output lane
// sees the exact scalar mul/add sequence.
//
// `cols[x]` must point at the 8 per-output coefficients of input x:
// t.c_t for the forward pass (c[u][x] across u), t.c rows for the inverse.
inline void f32_pass8_sse2(const float (*cols)[8], const float* in,
                           int in_step, float* out8) {
  __m128 lo = _mm_setzero_ps();
  __m128 hi = _mm_setzero_ps();
  for (int x = 0; x < 8; ++x) {
    const __m128 v = _mm_set1_ps(in[x * in_step]);
    lo = _mm_add_ps(lo, _mm_mul_ps(_mm_load_ps(&cols[x][0]), v));
    hi = _mm_add_ps(hi, _mm_mul_ps(_mm_load_ps(&cols[x][4]), v));
  }
  _mm_storeu_ps(out8, lo);
  _mm_storeu_ps(out8 + 4, hi);
}

void f32_2d_sse2(const float (*cols)[8], const float* in, float* out) {
  float tmp[64];
  for (int y = 0; y < 8; ++y) f32_pass8_sse2(cols, in + y * 8, 1, tmp + y * 8);
  for (int x = 0; x < 8; ++x) {
    float res[8];
    f32_pass8_sse2(cols, tmp + x, 8, res);
    for (int y = 0; y < 8; ++y) out[y * 8 + x] = res[y];
  }
}

void fdct8x8_f32_sse2(const float* in, float* out) {
  f32_2d_sse2(dct_tables().c_t, in, out);
}

void idct8x8_f32_sse2(const float* in, float* out) {
  f32_2d_sse2(dct_tables().c, in, out);
}

// Signed 32x32->64 multiply of the low 32 bits of each 64-bit lane.
// pmuludq is unsigned; subtract (b << 32) where a is negative and
// (a << 32) where b is negative to recover the signed product.
inline __m128i mul_s32_epi64(__m128i a, __m128i b) {
  const __m128i prod = _mm_mul_epu32(a, b);
  const __m128i a_sign = _mm_srai_epi32(a, 31);
  const __m128i b_sign = _mm_srai_epi32(b, 31);
  const __m128i corr_a = _mm_slli_epi64(_mm_and_si128(a_sign, b), 32);
  const __m128i corr_b = _mm_slli_epi64(_mm_and_si128(b_sign, a), 32);
  return _mm_sub_epi64(_mm_sub_epi64(prod, corr_a), corr_b);
}

// One Q15 1-D pass: 64-bit accumulators across the 8 outputs, then the
// scalar symmetric-rounding shift. `cols[x][u]` holds the basis value
// multiplying input x into output u, widened to an int64 lane.
inline void q15_pass8_sse2(const std::int64_t (*cols)[8],
                           const std::int32_t in[8], std::int32_t out[8],
                           unsigned out_shift) {
  __m128i acc0 = _mm_setzero_si128();
  __m128i acc1 = _mm_setzero_si128();
  __m128i acc2 = _mm_setzero_si128();
  __m128i acc3 = _mm_setzero_si128();
  for (int x = 0; x < 8; ++x) {
    const __m128i v = _mm_set1_epi64x(in[x]);
    const __m128i* c = reinterpret_cast<const __m128i*>(cols[x]);
    acc0 = _mm_add_epi64(acc0, mul_s32_epi64(_mm_load_si128(c + 0), v));
    acc1 = _mm_add_epi64(acc1, mul_s32_epi64(_mm_load_si128(c + 1), v));
    acc2 = _mm_add_epi64(acc2, mul_s32_epi64(_mm_load_si128(c + 2), v));
    acc3 = _mm_add_epi64(acc3, mul_s32_epi64(_mm_load_si128(c + 3), v));
  }
  alignas(16) std::int64_t accs[8];
  _mm_store_si128(reinterpret_cast<__m128i*>(accs + 0), acc0);
  _mm_store_si128(reinterpret_cast<__m128i*>(accs + 2), acc1);
  _mm_store_si128(reinterpret_cast<__m128i*>(accs + 4), acc2);
  _mm_store_si128(reinterpret_cast<__m128i*>(accs + 6), acc3);
  const std::int64_t half = std::int64_t{1} << (out_shift - 1);
  for (int u = 0; u < 8; ++u) {
    const std::int64_t acc = accs[u];
    out[u] = static_cast<std::int32_t>((acc + (acc >= 0 ? half : -half)) >>
                                       out_shift);
  }
}

void q15_2d_sse2(const std::int64_t (*cols)[8], const std::int16_t* in,
                 std::int16_t* out) {
  std::int32_t tmp[64];
  for (int y = 0; y < 8; ++y) {
    std::int32_t row[8], res[8];
    for (int x = 0; x < 8; ++x) row[x] = in[y * 8 + x];
    q15_pass8_sse2(cols, row, res, kQ15RowShift);
    for (int x = 0; x < 8; ++x) tmp[y * 8 + x] = res[x];
  }
  for (int x = 0; x < 8; ++x) {
    std::int32_t col[8], res[8];
    for (int y = 0; y < 8; ++y) col[y] = tmp[y * 8 + x];
    q15_pass8_sse2(cols, col, res, kQ15ColShift);
    for (int y = 0; y < 8; ++y) {
      const std::int32_t v = res[y];
      out[y * 8 + x] = static_cast<std::int16_t>(
          v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
    }
  }
}

void fdct8x8_q15_sse2(const std::int16_t* in, std::int16_t* out) {
  q15_2d_sse2(dct_tables().q15_fwd, in, out);
}

void idct8x8_q15_sse2(const std::int16_t* in, std::int16_t* out) {
  q15_2d_sse2(dct_tables().q15_inv, in, out);
}

// Round-half-away-from-zero of 4 floats to int32, exactly matching
// lroundf for |v| < 2^24: truncate, then push by one where the exact
// fraction reaches +/-0.5. Compare masks are all-ones (== -1) where true,
// so subtracting the >=+0.5 mask adds 1 and adding the <=-0.5 mask
// subtracts 1.
inline __m128i lround4_sse2(__m128 v) {
  const __m128i trunc = _mm_cvttps_epi32(v);
  const __m128 frac = _mm_sub_ps(v, _mm_cvtepi32_ps(trunc));
  const __m128i up =
      _mm_castps_si128(_mm_cmpge_ps(frac, _mm_set1_ps(0.5f)));
  const __m128i down =
      _mm_castps_si128(_mm_cmple_ps(frac, _mm_set1_ps(-0.5f)));
  return _mm_add_epi32(_mm_sub_epi32(trunc, up), down);
}

void quantize64_sse2(const float* coeffs, const float* steps,
                     std::int16_t* levels) {
  for (int i = 0; i < 64; i += 8) {
    const __m128i q0 = lround4_sse2(
        _mm_div_ps(_mm_loadu_ps(coeffs + i), _mm_loadu_ps(steps + i)));
    const __m128i q1 = lround4_sse2(_mm_div_ps(_mm_loadu_ps(coeffs + i + 4),
                                               _mm_loadu_ps(steps + i + 4)));
    // packs saturates to [-32768, 32767] — the scalar clamp.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(levels + i),
                     _mm_packs_epi32(q0, q1));
  }
}

void dequantize64_sse2(const std::int16_t* levels, const float* steps,
                       float* coeffs) {
  for (int i = 0; i < 64; i += 8) {
    const __m128i lv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(levels + i));
    const __m128i lo = _mm_srai_epi32(_mm_unpacklo_epi16(lv, lv), 16);
    const __m128i hi = _mm_srai_epi32(_mm_unpackhi_epi16(lv, lv), 16);
    _mm_storeu_ps(coeffs + i, _mm_mul_ps(_mm_cvtepi32_ps(lo),
                                         _mm_loadu_ps(steps + i)));
    _mm_storeu_ps(coeffs + i + 4, _mm_mul_ps(_mm_cvtepi32_ps(hi),
                                             _mm_loadu_ps(steps + i + 4)));
  }
}

// Two rows per step: each row's 8 prediction bytes widen to two float
// vectors, add the residual, round, and the signed then unsigned
// saturating packs give both rows' 16 output bytes.
void reconstruct8x8_sse2(const float* r, const std::uint8_t* pred,
                         std::ptrdiff_t pred_stride, std::uint8_t* out,
                         std::ptrdiff_t out_stride) {
  __m128i p[8];
  for (int y = 0; y < 8; ++y) {
    p[y] = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(pred + y * pred_stride));
  }
  const __m128i zero = _mm_setzero_si128();
  const auto row = [&](int y) {
    const __m128i p16 = _mm_unpacklo_epi8(p[y], zero);
    const __m128 lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(p16, zero));
    const __m128 hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(p16, zero));
    return _mm_packs_epi32(
        lround4_sse2(_mm_add_ps(_mm_loadu_ps(r + 8 * y), lo)),
        lround4_sse2(_mm_add_ps(_mm_loadu_ps(r + 8 * y + 4), hi)));
  };
  for (int y = 0; y < 8; y += 2) {
    const __m128i o = _mm_packus_epi16(row(y), row(y + 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + y * out_stride), o);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (y + 1) * out_stride),
                     _mm_srli_si128(o, 8));
  }
}

void fb_analyze_sse2(const double* x64, double* bands32) {
  const FbTables& t = fb_tables();
  alignas(16) double s[64];
  for (int n = 0; n < 64; n += 2) {
    _mm_store_pd(s + n, _mm_mul_pd(_mm_load_pd(t.window + n),
                                   _mm_loadu_pd(x64 + n)));
  }
  // Two half-band sweeps keep the accumulator count within the register
  // file; every band still accumulates its 64 products in n order.
  for (int k0 = 0; k0 < 32; k0 += 16) {
    __m128d acc[8];
    for (auto& a : acc) a = _mm_setzero_pd();
    for (int n = 0; n < 64; ++n) {
      const __m128d v = _mm_set1_pd(s[n]);
      const double* bt = t.basis_t[n] + k0;
      for (int j = 0; j < 8; ++j) {
        acc[j] = _mm_add_pd(acc[j], _mm_mul_pd(_mm_load_pd(bt + 2 * j), v));
      }
    }
    for (int j = 0; j < 8; ++j) {
      _mm_storeu_pd(bands32 + k0 + 2 * j, acc[j]);
    }
  }
}

void fb_synth_sse2(const double* bands32, double* y64) {
  const FbTables& t = fb_tables();
  for (int n0 = 0; n0 < 64; n0 += 8) {
    __m128d acc[4];
    for (auto& a : acc) a = _mm_setzero_pd();
    for (int k = 0; k < 32; ++k) {
      const __m128d v = _mm_set1_pd(bands32[k]);
      const double* b = t.basis[k] + n0;
      for (int j = 0; j < 4; ++j) {
        acc[j] = _mm_add_pd(acc[j], _mm_mul_pd(_mm_load_pd(b + 2 * j), v));
      }
    }
    for (int j = 0; j < 4; ++j) {
      _mm_storeu_pd(
          y64 + n0 + 2 * j,
          _mm_mul_pd(_mm_load_pd(t.synth_scale + n0 + 2 * j), acc[j]));
    }
  }
}

}  // namespace

const KernelTable kKernelsSse2 = {
    .level = SimdLevel::kSse2,
    .sad16 = &sad16_sse2,
    .sad16_candidates = &sad16_candidates_sse2,
    .fdct8x8_f32 = &fdct8x8_f32_sse2,
    .idct8x8_f32 = &idct8x8_f32_sse2,
    .fdct8x8_q15 = &fdct8x8_q15_sse2,
    .idct8x8_q15 = &idct8x8_q15_sse2,
    .quantize64 = &quantize64_sse2,
    .dequantize64 = &dequantize64_sse2,
    .reconstruct8x8 = &reconstruct8x8_sse2,
    // SSE2 has neither a 64-bit multiply nor a gather; a vector index with
    // scalar table loads was no faster than the scalar row.
    .sensor_noise_row = &sensor_noise_row_scalar,
    .crc32_update = &crc32_update_scalar,
    .fb_analyze = &fb_analyze_sse2,
    .fb_synth = &fb_synth_sse2};

}  // namespace mmsoc::dsp::detail

#endif  // MMSOC_SIMD_X86 && __SSE2__
