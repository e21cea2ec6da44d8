// Internal: shared constant tables and per-ISA kernel declarations for
// the dispatch layer. Not installed API — include only from src/dsp TUs
// and the variant kernel TUs.
//
// All variants of one kernel read the SAME numeric tables (built once, in
// scalar-compiled code) so a table-construction rounding difference can
// never break the bit-exactness contract. Layouts:
//  - float DCT basis both row-major (c[u][x]) and transposed, for the two
//    vectorization directions of forward/inverse row passes;
//  - the Q15 basis as int64 lanes (value in the low 32 bits) so SSE2/AVX2
//    32x32->64 multiplies can load vectors directly;
//  - the filterbank basis row-major (contiguous in n, for synthesis) and
//    transposed (contiguous in k, for analysis).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/dispatch.h"

namespace mmsoc::dsp::detail {

inline constexpr int kDct = 8;

// Q15 DCT rounding shifts — must match the historical dct.cpp values:
// the row pass keeps 4 extra fraction bits, the column pass removes both
// the Q15 scale and those extra bits.
inline constexpr unsigned kQ15RowShift = 11;
inline constexpr unsigned kQ15ColShift = 15 + (15 - kQ15RowShift);  // 19

struct DctTables {
  alignas(64) float c[kDct][kDct];    // orthonormal DCT-II basis, c[u][x]
  alignas(64) float c_t[kDct][kDct];  // c_t[x][u] == c[u][x]
  // Q15 basis as int32 values (|.| <= 16384).
  alignas(64) std::int32_t q15[kDct][kDct];    // q15[u][x]
  // Same values widened to int64 lanes for vector 32x32->64 multiplies:
  // fwd[x][u] = q15[u][x] (vector across outputs u of the forward pass),
  // inv[x][u] = q15[x][u] (vector across outputs u of the inverse pass).
  alignas(64) std::int64_t q15_fwd[kDct][kDct];
  alignas(64) std::int64_t q15_inv[kDct][kDct];
};
[[nodiscard]] const DctTables& dct_tables() noexcept;

inline constexpr int kFbBands = 32;
inline constexpr int kFbWindow = 64;

struct FbTables {
  alignas(64) double window[kFbWindow];       // sin((pi/64)(n+0.5))
  alignas(64) double synth_scale[kFbWindow];  // (2/32) * window[n]
  alignas(64) double basis[kFbBands][kFbWindow];    // basis[k][n]
  alignas(64) double basis_t[kFbWindow][kFbBands];  // basis_t[n][k]
};
[[nodiscard]] const FbTables& fb_tables() noexcept;

// Scalar reference kernels — always compiled; the oracle every SIMD
// variant must match bit for bit.
std::uint32_t sad16_scalar(const std::uint8_t* a, std::ptrdiff_t a_stride,
                           const std::uint8_t* b, std::ptrdiff_t b_stride);
void fdct8x8_f32_scalar(const float* in, float* out);
void idct8x8_f32_scalar(const float* in, float* out);
void fdct8x8_q15_scalar(const std::int16_t* in, std::int16_t* out);
void idct8x8_q15_scalar(const std::int16_t* in, std::int16_t* out);
void quantize64_scalar(const float* coeffs, const float* steps,
                       std::int16_t* levels);
void dequantize64_scalar(const std::int16_t* levels, const float* steps,
                         float* coeffs);
void fb_analyze_scalar(const double* x64, double* bands32);
void fb_synth_scalar(const double* bands32, double* y64);

// Variant tables, present only when their TU is compiled in. Constant-
// initialized (function addresses only) so a table reference can never
// run ISA-specific code before dispatch checks CPUID.
#if defined(MMSOC_SIMD_X86)
extern const KernelTable kKernelsSse2;
extern const KernelTable kKernelsAvx2;
#endif

}  // namespace mmsoc::dsp::detail
