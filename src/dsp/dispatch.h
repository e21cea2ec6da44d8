// Runtime-dispatched SIMD kernels for the Fig.1/Fig.2 hot loops.
//
// Wolf's paper puts the performance of a media MPSoC in its compute
// kernels once the platform overhead is gone; this module is the
// FFmpeg-dsputil-shaped answer on the host side. Each hot operation —
// 16x16 SAD (one window, or one search step's batch of candidates), 8x8
// float and Q15 DCT/IDCT, the 64-coefficient quantizer loops, the 8x8
// reconstruction adder, the 32-band filterbank MACs, the capture's
// octave blend and sensor-noise rows and the CRC-32 update — is a slot in
// a per-ISA function-pointer table. The table is chosen once at startup
// from CPUID (best available of scalar/SSE2/AVX2/AVX-512; non-x86 hosts
// run scalar), can be forced via the MMSOC_SIMD environment variable
// (scalar|sse2|avx2|avx512), and can be switched at runtime with
// set_simd_level() so tests and benches compare levels inside one
// process. The AVX-512 level (avx512f/dq/bw/vl, the x86-64-v4 set, plus
// the AVX2 level's avx2 and pclmul) has its own bodies for the float DCT
// pair, the octave blend and the sensor-noise row; its other slots point
// at the AVX2 functions.
//
// Bit-exactness contract: every variant of every kernel produces output
// byte-identical to the scalar reference for in-contract inputs.
//  - Integer kernels (sad16, Q15 DCT) rely on exact integer associativity;
//    the Q15 passes accumulate in 64-bit like the scalar code so no input
//    can overflow differently.
//  - Float kernels vectorize ACROSS output lanes and keep each lane's
//    summation order identical to scalar; kernel TUs build with
//    -ffp-contract=off so no FMA contraction changes a rounding.
//  - quantize64 emulates lroundf (half away from zero) exactly; inputs
//    must satisfy |coeffs[i] / steps[i]| < 2^24 (the codec's DCT
//    coefficients are orders of magnitude below this).
//  - reconstruct8x8 rounds with the same truncate-plus-exact-fraction
//    compare, which is exact for every float inside int range, and
//    saturates to [0, 255] like the scalar clamp.
//  - sensor_noise_row evaluates t = (v + sigma * g) + 0.5 in double, in
//    that order and never fused (no FMA), truncates t toward zero and
//    saturates to [0, 255]. In contract |t| < 2^31, where truncation is
//    defined; the index mix64(counter + x) >> 52 is integer and wraps
//    modulo 2^64 like the scalar code.
//  - octave_blend_row evaluates v = b + d * (90 * (lerp(ca, cb, csy) -
//    0.5) + 40 * (lerp(fa, fb, fsy) - 0.5)) in double, with lerp(a, b, t)
//    = a + (b - a) * t, in that order and never fused (no FMA).
//  - crc32_update is integer: the PCLMULQDQ fold and Barrett reduction
//    compute the same polynomial remainder as the table, so every
//    variant returns the same state for every input and any split of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace mmsoc::dsp {

enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3
};

[[nodiscard]] std::string_view simd_level_name(SimdLevel level) noexcept;

/// One ISA's implementations of the hot kernels. Function pointers are
/// never null in a registered table.
struct KernelTable {
  SimdLevel level;

  /// Sum of absolute differences between two 16x16 pixel windows.
  std::uint32_t (*sad16)(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride);
  /// One motion-search step: sads[i] = sad16(cur, cur_stride, cands[i],
  /// cand_stride) for i < n. The current window is loaded once for the
  /// whole batch; every candidate window shares one stride.
  void (*sad16_candidates)(const std::uint8_t* cur, std::ptrdiff_t cur_stride,
                           const std::uint8_t* const* cands,
                           std::ptrdiff_t cand_stride, int n,
                           std::uint32_t* sads);

  /// 2-D 8x8 orthonormal DCT-II / DCT-III on row-major float blocks
  /// (in and out may alias).
  void (*fdct8x8_f32)(const float* in, float* out);
  void (*idct8x8_f32)(const float* in, float* out);

  /// 2-D 8x8 Q15 fixed-point DCT/IDCT on row-major int16 blocks
  /// (in and out may alias).
  void (*fdct8x8_q15)(const std::int16_t* in, std::int16_t* out);
  void (*idct8x8_q15)(const std::int16_t* in, std::int16_t* out);

  /// levels[i] = clamp(lroundf(coeffs[i] / steps[i]), int16 range).
  void (*quantize64)(const float* coeffs, const float* steps,
                     std::int16_t* levels);
  /// coeffs[i] = float(levels[i]) * steps[i].
  void (*dequantize64)(const std::int16_t* levels, const float* steps,
                       float* coeffs);

  /// The reconstruction adder on one 8x8 block: out = clamp_u8(
  /// round_half_away(residual + pred)), with the residual row-major and
  /// inside int range. The whole prediction is read before any output is
  /// written, so `out` may alias `pred`.
  void (*reconstruct8x8)(const float* residual, const std::uint8_t* pred,
                         std::ptrdiff_t pred_stride, std::uint8_t* out,
                         std::ptrdiff_t out_stride);

  /// One row of capture's two-octave texture: v[x] = brightness + detail *
  /// (90 * (lerp(ca[x], cb[x], csy) - 0.5) + 40 * (lerp(fa[x], fb[x], fsy) -
  /// 0.5)) for x < n, each octave's lerp blending its two interpolated
  /// lattice rows by the row weight.
  void (*octave_blend_row)(const double* ca, const double* cb, double csy,
                           const double* fa, const double* fb, double fsy,
                           double brightness, double detail, std::size_t n,
                           double* v);

  /// One row of sensor-noised pixels: out[x] = clamp_u8(int((v[x] +
  /// sigma * table[mix64(counter + x) >> 52]) + 0.5)) for x < n, with
  /// common::mix64 and a 4096-entry noise table.
  void (*sensor_noise_row)(const double* v, std::size_t n, double sigma,
                           std::uint64_t counter, const double* table,
                           std::uint8_t* out);

  /// CRC-32 (IEEE 802.3, reflected) register after `n` more bytes: the
  /// state is the register itself, before the final xor.
  std::uint32_t (*crc32_update)(std::uint32_t state, const std::uint8_t* data,
                                std::size_t n);

  /// 32-band analysis MAC: bands[k] = sum_n (window[n]*x[n]) * basis[k][n]
  /// over the 64-sample lapped window x.
  void (*fb_analyze)(const double* x64, double* bands32);
  /// 32-band synthesis MAC: y[n] = ((2/32)*window[n]) * sum_k bands[k]*basis[k][n].
  void (*fb_synth)(const double* bands32, double* y64);
};

/// The active table. Cheap (one relaxed atomic load) — callers may fetch
/// it per block, but hot loops should hoist it once per frame.
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Table for a specific level, or nullptr if that level was not compiled
/// into this binary.
[[nodiscard]] const KernelTable* kernel_table(SimdLevel level) noexcept;

/// Every level linked into this binary (scalar always included).
[[nodiscard]] std::vector<SimdLevel> compiled_levels();

/// True if the running CPU can execute `level` (scalar always true).
[[nodiscard]] bool cpu_supports(SimdLevel level) noexcept;

[[nodiscard]] SimdLevel active_simd_level() noexcept;

/// Switch the active table; returns false (and leaves the table alone) if
/// the level is not compiled in or the CPU lacks it.
bool set_simd_level(SimdLevel level) noexcept;

/// Parse "scalar" | "sse2" | "avx2" | "avx512"; returns false on anything
/// else.
bool parse_simd_level(std::string_view name, SimdLevel& out) noexcept;

}  // namespace mmsoc::dsp
