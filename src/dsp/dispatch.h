// Runtime-dispatched SIMD kernels for the Fig.1/Fig.2 hot loops.
//
// Wolf's paper puts the performance of a media MPSoC in its compute
// kernels once the platform overhead is gone; this module is the
// FFmpeg-dsputil-shaped answer on the host side. Each hot operation —
// 16x16 SAD, 8x8 float and Q15 DCT/IDCT, the 64-coefficient quantizer
// loops, and the 32-band filterbank MACs — is a slot in a per-ISA
// function-pointer table. The table is chosen once at startup from CPUID
// (best available of scalar/SSE2/AVX2; non-x86 hosts run scalar), can be
// forced via the MMSOC_SIMD environment variable (scalar|sse2|avx2), and
// can be switched at runtime with set_simd_level() so tests and benches
// compare levels inside one process.
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
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace mmsoc::dsp {

enum class SimdLevel : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

[[nodiscard]] std::string_view simd_level_name(SimdLevel level) noexcept;

/// One ISA's implementations of the hot kernels. Function pointers are
/// never null in a registered table.
struct KernelTable {
  SimdLevel level;

  /// Sum of absolute differences between two 16x16 pixel windows.
  std::uint32_t (*sad16)(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride);

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

/// Parse "scalar" | "sse2" | "avx2"; returns false on anything else.
bool parse_simd_level(std::string_view name, SimdLevel& out) noexcept;

}  // namespace mmsoc::dsp
