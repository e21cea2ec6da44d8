#include "dsp/dispatch.h"

#include <atomic>
#include <cmath>
#include <cstdlib>

#include "common/mathutil.h"
#include "dsp/kernels.h"

namespace mmsoc::dsp {
namespace detail {
namespace {

// Table construction runs in this scalar-compiled TU only; the formulas
// are byte-for-byte the ones the pre-dispatch dct.cpp / filterbank.cpp
// used, so routing through the tables changes no numeric result.
DctTables make_dct_tables() noexcept {
  DctTables t{};
  for (int u = 0; u < kDct; ++u) {
    const double s =
        u == 0 ? std::sqrt(1.0 / kDct) : std::sqrt(2.0 / kDct);
    for (int x = 0; x < kDct; ++x) {
      t.c[u][x] = static_cast<float>(
          s * std::cos((2 * x + 1) * u * common::kPi / (2 * kDct)));
    }
  }
  for (int u = 0; u < kDct; ++u)
    for (int x = 0; x < kDct; ++x) t.c_t[x][u] = t.c[u][x];
  for (int j = 0; j < kDct / 2; ++j) {
    for (int k = 0; k < kDct; ++k) {
      for (int i = 0; i < kDct; ++i) {
        t.c_pair[j][k][i] = t.c[j][k];
        t.c_pair[j][k][kDct + i] = t.c[j + kDct / 2][k];
        t.c_t_pair[j][k][i] = t.c_t[j][k];
        t.c_t_pair[j][k][kDct + i] = t.c_t[j + kDct / 2][k];
      }
    }
  }
  for (int u = 0; u < kDct; ++u)
    for (int x = 0; x < kDct; ++x)
      t.q15[u][x] = static_cast<std::int32_t>(
          std::lround(static_cast<double>(t.c[u][x]) * 32768.0));
  for (int u = 0; u < kDct; ++u) {
    for (int x = 0; x < kDct; ++x) {
      t.q15_fwd[x][u] = t.q15[u][x];
      t.q15_inv[x][u] = t.q15[x][u];
    }
  }
  return t;
}

FbTables make_fb_tables() noexcept {
  FbTables t{};
  for (int n = 0; n < kFbWindow; ++n) {
    t.window[n] = std::sin(common::kPi / kFbWindow * (n + 0.5));
    t.synth_scale[n] = (2.0 / kFbBands) * t.window[n];
  }
  for (int k = 0; k < kFbBands; ++k) {
    for (int n = 0; n < kFbWindow; ++n) {
      t.basis[k][n] = std::cos(common::kPi / kFbBands *
                               (n + 0.5 + kFbBands / 2.0) * (k + 0.5));
      t.basis_t[n][k] = t.basis[k][n];
    }
  }
  return t;
}

}  // namespace

const DctTables& dct_tables() noexcept {
  static const DctTables t = make_dct_tables();
  return t;
}

const FbTables& fb_tables() noexcept {
  static const FbTables t = make_fb_tables();
  return t;
}

namespace {

constexpr KernelTable kKernelsScalar = {
    .level = SimdLevel::kScalar,
    .sad16 = &sad16_scalar,
    .sad16_candidates = &sad16_candidates_scalar,
    .fdct8x8_f32 = &fdct8x8_f32_scalar,
    .idct8x8_f32 = &idct8x8_f32_scalar,
    .fdct8x8_q15 = &fdct8x8_q15_scalar,
    .idct8x8_q15 = &idct8x8_q15_scalar,
    .quantize64 = &quantize64_scalar,
    .dequantize64 = &dequantize64_scalar,
    .reconstruct8x8 = &reconstruct8x8_scalar,
    .octave_blend_row = &octave_blend_row_scalar,
    .sensor_noise_row = &sensor_noise_row_scalar,
    .crc32_update = &crc32_update_scalar,
    .fb_analyze = &fb_analyze_scalar,
    .fb_synth = &fb_synth_scalar};

}  // namespace
}  // namespace detail

namespace {

constexpr SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                                    SimdLevel::kAvx2, SimdLevel::kAvx512};

const KernelTable* registered_table(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return &detail::kKernelsScalar;
#if defined(MMSOC_SIMD_X86)
    case SimdLevel::kSse2:
      return &detail::kKernelsSse2;
    case SimdLevel::kAvx2:
      return &detail::kKernelsAvx2;
    case SimdLevel::kAvx512:
      return &detail::kKernelsAvx512;
#endif
    default:
      return nullptr;
  }
}

bool cpu_supports_impl(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case SimdLevel::kSse2:
      return __builtin_cpu_supports("sse2") != 0;
    case SimdLevel::kAvx2:  // its CRC-32 folds with PCLMULQDQ
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("pclmul") != 0;
    case SimdLevel::kAvx512:  // x86-64-v4, and the AVX2 bodies it reuses
      return cpu_supports_impl(SimdLevel::kAvx2) &&
             __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#endif
    default:
      return false;
  }
}

// Startup choice: MMSOC_SIMD override if set and usable, otherwise the
// best level both compiled in and supported by this CPU.
const KernelTable* select_initial() noexcept {
  if (const char* env = std::getenv("MMSOC_SIMD")) {
    SimdLevel lv;
    if (parse_simd_level(env, lv) && cpu_supports_impl(lv)) {
      if (const KernelTable* t = registered_table(lv)) return t;
    }
  }
  for (const SimdLevel lv :
       {SimdLevel::kAvx512, SimdLevel::kAvx2, SimdLevel::kSse2}) {
    if (!cpu_supports_impl(lv)) continue;
    if (const KernelTable* t = registered_table(lv)) return t;
  }
  return &detail::kKernelsScalar;
}

std::atomic<const KernelTable*>& active_table() noexcept {
  static std::atomic<const KernelTable*> table{select_initial()};
  return table;
}

}  // namespace

std::string_view simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_simd_level(std::string_view name, SimdLevel& out) noexcept {
  for (const SimdLevel lv : kAllLevels) {
    if (name == simd_level_name(lv)) {
      out = lv;
      return true;
    }
  }
  return false;
}

const KernelTable& kernels() noexcept {
  return *active_table().load(std::memory_order_relaxed);
}

const KernelTable* kernel_table(SimdLevel level) noexcept {
  return registered_table(level);
}

std::vector<SimdLevel> compiled_levels() {
  std::vector<SimdLevel> out;
  for (const SimdLevel lv : kAllLevels) {
    if (registered_table(lv) != nullptr) out.push_back(lv);
  }
  return out;
}

bool cpu_supports(SimdLevel level) noexcept { return cpu_supports_impl(level); }

SimdLevel active_simd_level() noexcept { return kernels().level; }

bool set_simd_level(SimdLevel level) noexcept {
  if (!cpu_supports_impl(level)) return false;
  const KernelTable* t = registered_table(level);
  if (t == nullptr) return false;
  active_table().store(t, std::memory_order_relaxed);
  return true;
}

}  // namespace mmsoc::dsp
