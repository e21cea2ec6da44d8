// AVX-512 kernel variants. Built with -mavx512f -mavx512dq -mavx512bw
// -mavx512vl -ffp-contract=off; compiles away unless x86 SIMD dispatch is
// enabled. -mavx512f makes FMA encodable, so -ffp-contract=off is what
// keeps every multiply and add below unfused. No code in this TU runs
// before dispatch.cpp has checked CPUID: the exported table is constant-
// initialized from function addresses only.
//
// Same bit-exactness scheme as the AVX2 TU (see dispatch.h), at twice the
// width: every lane runs the scalar sequence of operations.
//  - float DCT pair: a register holds two rows of the block, j and j + 4.
//    The row pass broadcasts input x within each half with one vpermps;
//    the column pass multiplies each source row, duplicated into both
//    halves, by a paired constant c[j][k] | c[j + 4][k] (DctTables).
//  - octave_blend_row: eight pixels per vector, the tail under a mask.
//  - sensor_noise_row: eight counters per vector, both mix64 multiplies
//    native (vpmullq), an eight-lane gather, cvttpd, then max(., 0) and
//    vpmovusdb for the byte saturation.
// The other slots reuse the AVX2 bodies.
#if defined(MMSOC_SIMD_X86) && defined(__AVX512F__) && \
    defined(__AVX512DQ__) && defined(__AVX512BW__) && defined(__AVX512VL__)

// GCC 12's AVX-512 intrinsics leave their unused pass-through operands
// undefined on purpose (`__m512 __Y = __Y;`), which its -Wuninitialized
// then reports at every inlined call; the warning is about the header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "dsp/kernels.h"

namespace mmsoc::dsp::detail {
namespace {

// rows[j] holds block rows j and j + 4 (j < 4). out rows = in rows times
// the basis, the row pass against cols (cols[x] is one 8-lane constant,
// broadcast into both halves) and the column pass against the paired
// constants, each lane's sum running in x (then k) order from +0. The
// loops are unrolled so the twelve block registers never leave the
// register file.
void f32_2d_avx512(const float (*cols)[8], const float (*pairs)[8][16],
                   const float* in, float* out) {
  __m512 rows[4];
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    rows[j] = _mm512_insertf32x8(_mm512_castps256_ps512(_mm256_loadu_ps(in + 8 * j)),
                                 _mm256_loadu_ps(in + 8 * (j + 4)), 1);
  }
  const __m512i halves =
      _mm512_setr_epi32(0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8, 8, 8, 8, 8);
  __m512 tmp[4];
#pragma GCC unroll 4
  for (auto& t : tmp) t = _mm512_setzero_ps();
#pragma GCC unroll 8
  for (int x = 0; x < 8; ++x) {
    const __m512 c = _mm512_broadcast_f32x8(_mm256_load_ps(cols[x]));
    const __m512i pick = _mm512_add_epi32(_mm512_set1_epi32(x), halves);
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      tmp[j] = _mm512_add_ps(tmp[j], _mm512_mul_ps(c, _mm512_permutexvar_ps(pick, rows[j])));
    }
  }
  __m512 acc[4];
#pragma GCC unroll 4
  for (auto& a : acc) a = _mm512_setzero_ps();
#pragma GCC unroll 8
  for (int k = 0; k < 8; ++k) {
    // Row k of tmp in both halves: the low half of tmp[k] or the high
    // half of tmp[k - 4].
    const __m512 src = k < 4 ? _mm512_shuffle_f32x4(tmp[k], tmp[k], 0x44)
                             : _mm512_shuffle_f32x4(tmp[k - 4], tmp[k - 4], 0xEE);
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      acc[j] = _mm512_add_ps(acc[j], _mm512_mul_ps(_mm512_load_ps(pairs[j][k]), src));
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    _mm256_storeu_ps(out + 8 * j, _mm512_castps512_ps256(acc[j]));
    _mm256_storeu_ps(out + 8 * (j + 4), _mm512_extractf32x8_ps(acc[j], 1));
  }
}

void fdct8x8_f32_avx512(const float* in, float* out) {
  const DctTables& t = dct_tables();
  f32_2d_avx512(t.c_t, t.c_pair, in, out);
}

void idct8x8_f32_avx512(const float* in, float* out) {
  const DctTables& t = dct_tables();
  f32_2d_avx512(t.c, t.c_t_pair, in, out);
}

void octave_blend_row_avx512(const double* ca, const double* cb, double csy,
                             const double* fa, const double* fb, double fsy,
                             double brightness, double detail, std::size_t n,
                             double* v) {
  const __m512d half = _mm512_set1_pd(0.5);
  const auto lerp = [](__m512d a, __m512d b, __m512d t) {
    return _mm512_add_pd(a, _mm512_mul_pd(_mm512_sub_pd(b, a), t));
  };
  const __m512d cs = _mm512_set1_pd(csy), fs = _mm512_set1_pd(fsy);
  const __m512d k90 = _mm512_set1_pd(90.0), k40 = _mm512_set1_pd(40.0);
  const __m512d b = _mm512_set1_pd(brightness), d = _mm512_set1_pd(detail);
  for (std::size_t x = 0; x < n; x += 8) {
    const __mmask8 m = n - x >= 8 ? 0xFF : static_cast<__mmask8>((1u << (n - x)) - 1);
    const __m512d c = lerp(_mm512_maskz_loadu_pd(m, ca + x), _mm512_maskz_loadu_pd(m, cb + x), cs);
    const __m512d f = lerp(_mm512_maskz_loadu_pd(m, fa + x), _mm512_maskz_loadu_pd(m, fb + x), fs);
    const __m512d tex = _mm512_add_pd(_mm512_mul_pd(k90, _mm512_sub_pd(c, half)),
                                      _mm512_mul_pd(k40, _mm512_sub_pd(f, half)));
    _mm512_mask_storeu_pd(v + x, m, _mm512_add_pd(b, _mm512_mul_pd(d, tex)));
  }
}

// Eight pixels: t = (v + sigma * g) + 0.5 with g gathered at the top 12
// bits of common::mix64(counter); mix64's last step, z ^ (z >> 31), does
// not touch those bits. cvttpd truncates like the scalar int conversion.
class NoiseOctet {
 public:
  NoiseOctet(double sigma, std::uint64_t counter, const double* table)
      : sigma_(_mm512_set1_pd(sigma)),
        counter_(_mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(counter)),
                                  _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7))),
        table_(table) {}

  __m256i next(const double* v) {
    __m512i z = counter_;
    counter_ = _mm512_add_epi64(counter_, _mm512_set1_epi64(8));
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), k1_);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), k2_);
    const __m512d g = _mm512_i64gather_pd(_mm512_srli_epi64(z, 52), table_, 8);
    const __m512d t = _mm512_add_pd(
        _mm512_add_pd(_mm512_loadu_pd(v), _mm512_mul_pd(sigma_, g)),
        _mm512_set1_pd(0.5));
    return _mm512_cvttpd_epi32(t);
  }

 private:
  const __m512i k1_ = _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ull));
  const __m512i k2_ = _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBull));
  __m512d sigma_;
  __m512i counter_;
  const double* table_;
};

// Sixteen pixels per step: max(., 0) then vpmovusdb's unsigned
// saturation clamp to [0, 255]; the last n % 16 run the scalar row.
void sensor_noise_row_avx512(const double* v, std::size_t n, double sigma,
                             std::uint64_t counter, const double* table,
                             std::uint8_t* out) {
  NoiseOctet octet(sigma, counter, table);
  std::size_t x = 0;
  for (; x + 16 <= n; x += 16) {
    const __m256i lo = octet.next(v + x);
    const __m256i hi = octet.next(v + x + 8);
    const __m512i i32 = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + x),
                     _mm512_cvtusepi32_epi8(_mm512_max_epi32(i32, _mm512_setzero_si512())));
  }
  sensor_noise_row_scalar(v + x, n - x, sigma, counter + x, table, out + x);
}

}  // namespace

const KernelTable kKernelsAvx512 = {
    .level = SimdLevel::kAvx512,
    .sad16 = &sad16_avx2,
    .sad16_candidates = &sad16_candidates_avx2,
    .fdct8x8_f32 = &fdct8x8_f32_avx512,
    .idct8x8_f32 = &idct8x8_f32_avx512,
    .fdct8x8_q15 = &fdct8x8_q15_avx2,
    .idct8x8_q15 = &idct8x8_q15_avx2,
    .quantize64 = &quantize64_avx2,
    .dequantize64 = &dequantize64_avx2,
    .reconstruct8x8 = &reconstruct8x8_avx2,
    .octave_blend_row = &octave_blend_row_avx512,
    .sensor_noise_row = &sensor_noise_row_avx512,
    .crc32_update = &crc32_update_avx2,
    .fb_analyze = &fb_analyze_avx2,
    .fb_synth = &fb_synth_avx2};

}  // namespace mmsoc::dsp::detail

#endif  // MMSOC_SIMD_X86 && __AVX512F__ && __AVX512DQ__ && __AVX512BW__ && __AVX512VL__
