// Tests for the DSP kernels: DCT, FFT, wavelets, filters, windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/mathutil.h"
#include "common/rng.h"
#include "dsp/crc32.h"
#include "dsp/dct.h"
#include "dsp/dispatch.h"
#include "dsp/fft.h"
#include "dsp/filter.h"
#include "dsp/wavelet.h"
#include "dsp/window.h"
#include "video/codec.h"
#include "video/source.h"

namespace mmsoc::dsp {
namespace {

using common::Rng;

Block random_block(Rng& rng, float lo = -128.0f, float hi = 127.0f) {
  Block b;
  for (auto& v : b)
    v = static_cast<float>(rng.next_double_in(lo, hi));
  return b;
}

// -------------------------------------------------------------------- crc32

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value of "123456789".
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32({data, 9}), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0x00000000u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(3);
  std::vector<std::uint8_t> data(1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  Crc32 inc;
  inc.update({data.data(), 100});
  inc.update({data.data() + 100, 924});
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const auto before = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(crc32(data), before);
}

// Bytewise reflected CRC-32 state update, straight from the polynomial.
std::uint32_t reference_crc_state(std::uint32_t state, const std::uint8_t* p,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : (state >> 1);
    }
  }
  return state;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(5);
  std::vector<std::uint8_t> buf(64 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      EXPECT_EQ(crc32({p, len}),
                reference_crc_state(0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalSplitAtEveryOffsetMatchesReference) {
  Rng rng(6);
  std::vector<std::uint8_t> data(77);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t want =
      reference_crc_state(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 inc;
    inc.update({data.data(), split});
    inc.update({data.data() + split, data.size() - split});
    EXPECT_EQ(inc.value(), want) << "split at " << split;
  }
}

// ---------------------------------------------------------------------- DCT

TEST(Dct, ForwardInverseIdentity) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Block in = random_block(rng);
    Block coeffs, back;
    dct2d(in, coeffs);
    idct2d(coeffs, back);
    for (int i = 0; i < 64; ++i) EXPECT_NEAR(back[i], in[i], 1e-3f);
  }
}

TEST(Dct, SeparableMatchesDirect) {
  // The paper's claim: "a 2-D DCT can be computed from two 1-D DCTs".
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const Block in = random_block(rng);
    Block direct, separable;
    dct2d_direct(in, direct);
    dct2d(in, separable);
    for (int i = 0; i < 64; ++i) EXPECT_NEAR(direct[i], separable[i], 1e-2f);
  }
}

TEST(Dct, InverseDirectMatchesInverseSeparable) {
  Rng rng(3);
  const Block in = random_block(rng);
  Block a, b;
  idct2d_direct(in, a);
  idct2d(in, b);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(a[i], b[i], 1e-2f);
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  Block in;
  in.fill(50.0f);
  Block coeffs;
  dct2d(in, coeffs);
  EXPECT_NEAR(coeffs[0], 50.0f * 8.0f, 1e-2f);  // DC = N * mean for orthonormal
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coeffs[i], 0.0f, 1e-3f);
}

TEST(Dct, ParsevalEnergyPreserved) {
  // Orthonormal transform preserves the sum of squares.
  Rng rng(4);
  const Block in = random_block(rng);
  Block coeffs;
  dct2d(in, coeffs);
  double e_in = 0.0, e_out = 0.0;
  for (int i = 0; i < 64; ++i) {
    e_in += static_cast<double>(in[i]) * in[i];
    e_out += static_cast<double>(coeffs[i]) * coeffs[i];
  }
  EXPECT_NEAR(e_out / e_in, 1.0, 1e-4);
}

TEST(Dct, Linearity) {
  Rng rng(5);
  const Block a = random_block(rng);
  const Block b = random_block(rng);
  Block sum;
  for (int i = 0; i < 64; ++i) sum[i] = 2.0f * a[i] + 3.0f * b[i];
  Block ca, cb, csum;
  dct2d(a, ca);
  dct2d(b, cb);
  dct2d(sum, csum);
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(csum[i], 2.0f * ca[i] + 3.0f * cb[i], 1e-2f);
}

TEST(Dct, FixedPointCloseToFloat) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    BlockI16 in;
    Block inf;
    for (int i = 0; i < 64; ++i) {
      in[i] = static_cast<std::int16_t>(rng.next_in(-255, 255));
      inf[i] = static_cast<float>(in[i]);
    }
    BlockI16 qcoeffs;
    Block fcoeffs;
    dct2d_q15(in, qcoeffs);
    dct2d(inf, fcoeffs);
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(static_cast<float>(qcoeffs[i]), fcoeffs[i], 2.0f)
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(Dct, FixedPointRoundTripBounded) {
  Rng rng(7);
  BlockI16 in, coeffs, back;
  for (int i = 0; i < 64; ++i)
    in[i] = static_cast<std::int16_t>(rng.next_in(-255, 255));
  dct2d_q15(in, coeffs);
  idct2d_q15(coeffs, back);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(back[i], in[i], 3);
}

TEST(Dct, EnergyCompactionOnSmoothBlock) {
  // A smooth gradient compacts almost all energy into few coefficients —
  // the property quantization exploits (§3).
  Block in;
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x)
      in[static_cast<std::size_t>(y) * 8 + x] = static_cast<float>(8 * x + 3 * y);
  Block coeffs;
  dct2d(in, coeffs);
  EXPECT_GT(energy_compaction(coeffs, 10), 0.99);
  // And compaction is monotone in k.
  double prev = 0.0;
  for (int k = 1; k <= 64; k *= 2) {
    const double c = energy_compaction(coeffs, k);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(energy_compaction(coeffs, 64), 1.0, 1e-9);
}

// ---------------------------------------------------------------------- FFT

TEST(Fft, RoundTrip) {
  Rng rng(8);
  std::vector<Complex> data(256);
  for (auto& c : data)
    c = Complex(rng.next_double_in(-1, 1), rng.next_double_in(-1, 1));
  const auto original = data;
  fft(data);
  ifft(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> data(64, Complex{});
  data[0] = Complex(1.0, 0.0);
  fft(data);
  for (const auto& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-9);
    EXPECT_NEAR(c.imag(), 0.0, 1e-9);
  }
}

TEST(Fft, PureToneLandsInCorrectBin) {
  const std::size_t n = 512;
  const int bin = 37;
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i)
    samples[i] = std::cos(2.0 * common::kPi * bin * static_cast<double>(i) / n);
  const auto power = power_spectrum(samples, n);
  // Bin 37 dominates everything else by orders of magnitude.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < power.size(); ++i)
    if (power[i] > power[peak]) peak = i;
  EXPECT_EQ(peak, static_cast<std::size_t>(bin));
  EXPECT_GT(power[bin], 1e6 * power[bin + 5]);
}

TEST(Fft, ParsevalHolds) {
  Rng rng(9);
  const std::size_t n = 256;
  std::vector<Complex> data(n);
  double time_energy = 0.0;
  for (auto& c : data) {
    c = Complex(rng.next_double_in(-1, 1), 0.0);
    time_energy += std::norm(c);
  }
  fft(data);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6);
}

TEST(Fft, NonPowerOfTwoIsNoOp) {
  std::vector<Complex> data(100, Complex(1.0, 0.0));
  const auto original = data;
  fft(data);
  EXPECT_EQ(data, original);
}

// ------------------------------------------------------------------ wavelet

class Dwt53RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Dwt53RoundTrip, ExactIntegerReversibility) {
  // The 5/3 transform is the *reversible* JPEG2000 filter: bit-exact.
  Rng rng(10);
  std::vector<std::int32_t> data(static_cast<std::size_t>(GetParam()));
  for (auto& v : data) v = static_cast<std::int32_t>(rng.next_in(-1000, 1000));
  const auto original = data;
  dwt53_forward(data);
  dwt53_inverse(data);
  EXPECT_EQ(data, original);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Dwt53RoundTrip,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Dwt97, RoundTripWithinEpsilon) {
  Rng rng(11);
  std::vector<float> data(512);
  for (auto& v : data) v = static_cast<float>(rng.next_double_in(-100, 100));
  const auto original = data;
  dwt97_forward(data);
  dwt97_inverse(data);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(data[i], original[i], 1e-3f);
}

TEST(Dwt53, SmoothSignalCompactsIntoLowBand) {
  std::vector<std::int32_t> data(256);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::int32_t>(
        100.0 * std::sin(2.0 * common::kPi * static_cast<double>(i) / 256.0));
  dwt53_forward(data);
  double low = 0.0, high = 0.0;
  for (std::size_t i = 0; i < 128; ++i) low += std::abs(data[i]);
  for (std::size_t i = 128; i < 256; ++i) high += std::abs(data[i]);
  EXPECT_GT(low, 20.0 * high);
}

TEST(Dwt2d, Integer53RoundTrip) {
  Rng rng(12);
  const int w = 64, h = 32;
  std::vector<std::int32_t> img(static_cast<std::size_t>(w) * h);
  for (auto& v : img) v = static_cast<std::int32_t>(rng.next_in(0, 255));
  const auto original = img;
  dwt53_2d_forward(img, w, h, 3);
  dwt53_2d_inverse(img, w, h, 3);
  EXPECT_EQ(img, original);
}

TEST(Dwt2d, Float97RoundTrip) {
  Rng rng(13);
  const int w = 32, h = 32;
  std::vector<float> img(static_cast<std::size_t>(w) * h);
  for (auto& v : img) v = static_cast<float>(rng.next_double_in(0, 255));
  const auto original = img;
  dwt97_2d_forward(img, w, h, 2);
  dwt97_2d_inverse(img, w, h, 2);
  for (std::size_t i = 0; i < img.size(); ++i)
    EXPECT_NEAR(img[i], original[i], 1e-2f);
}

TEST(Dwt2d, LlEnergyFractionHighForSmoothImage) {
  const int w = 64, h = 64;
  std::vector<float> img(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img[static_cast<std::size_t>(y) * w + x] =
          static_cast<float>(100.0 + 50.0 * std::sin(x * 0.1) * std::cos(y * 0.08));
  EXPECT_GT(ll_energy_fraction(img, w, h, 2), 0.95);
}

// ------------------------------------------------------------------ filters

TEST(Fir, DesignHasUnitDcGain) {
  const auto taps = design_lowpass_fir(63, 0.1);
  double sum = 0.0;
  for (const auto t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Fir, LowpassPassesLowAndStopsHigh) {
  FirFilter f(design_lowpass_fir(127, 0.1));
  // Measure steady-state amplitude of a low and a high tone.
  auto amplitude_at = [&](double freq) {
    f.reset();
    double peak = 0.0;
    for (int i = 0; i < 2000; ++i) {
      const double y = f.process(std::sin(2.0 * common::kPi * freq * i));
      if (i > 500) peak = std::max(peak, std::abs(y));
    }
    return peak;
  };
  EXPECT_GT(amplitude_at(0.02), 0.9);
  EXPECT_LT(amplitude_at(0.3), 0.01);
}

TEST(Fir, ImpulseResponseEqualsTaps) {
  const std::vector<double> taps = {0.5, 0.25, 0.125};
  FirFilter f(taps);
  EXPECT_DOUBLE_EQ(f.process(1.0), 0.5);
  EXPECT_DOUBLE_EQ(f.process(0.0), 0.25);
  EXPECT_DOUBLE_EQ(f.process(0.0), 0.125);
  EXPECT_DOUBLE_EQ(f.process(0.0), 0.0);
}

TEST(Biquad, LowpassAttenuatesHighFrequencies) {
  Biquad f(Biquad::lowpass(0.05, 0.707));
  auto amplitude_at = [&](double freq) {
    f.reset();
    double peak = 0.0;
    for (int i = 0; i < 4000; ++i) {
      const double y = f.process(std::sin(2.0 * common::kPi * freq * i));
      if (i > 1000) peak = std::max(peak, std::abs(y));
    }
    return peak;
  };
  EXPECT_GT(amplitude_at(0.005), 0.95);
  EXPECT_LT(amplitude_at(0.4), 0.02);
}

TEST(Biquad, NotchRemovesTargetFrequency) {
  Biquad f(Biquad::notch(0.1, 5.0));
  double peak = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double y = f.process(std::sin(2.0 * common::kPi * 0.1 * i));
    if (i > 2000) peak = std::max(peak, std::abs(y));
  }
  EXPECT_LT(peak, 0.05);
}

TEST(Biquad, StableUnderWhiteNoise) {
  Rng rng(14);
  Biquad f(Biquad::lowpass(0.2, 0.707));
  double max_out = 0.0;
  for (int i = 0; i < 100000; ++i) {
    max_out = std::max(max_out, std::abs(f.process(rng.next_double_in(-1, 1))));
  }
  EXPECT_LT(max_out, 10.0);  // bounded output = stable
}

TEST(BiquadQ15, TracksFloatBiquad) {
  const auto coeffs = Biquad::lowpass(0.1, 0.707);
  Biquad ref(coeffs);
  BiquadQ15 fix(coeffs);
  Rng rng(15);
  double max_err = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.next_double_in(-1000.0, 1000.0);
    const double yr = ref.process(x);
    const double yf = fix.process(common::Q15::from_double(x)).to_double();
    max_err = std::max(max_err, std::abs(yr - yf));
  }
  EXPECT_LT(max_err, 1.0);  // < 0.1% of the +/-1000 signal range
}

// ------------------------------------------------------------------ windows

TEST(Window, HannEndpointsZeroCenterOne) {
  const auto w = make_window(WindowKind::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, AllKindsBoundedByOne) {
  for (const auto kind : {WindowKind::kRect, WindowKind::kHann,
                          WindowKind::kHamming, WindowKind::kBlackman,
                          WindowKind::kSine}) {
    const auto w = make_window(kind, 128);
    for (const auto v : w) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(Window, DegenerateSizes) {
  EXPECT_EQ(make_window(WindowKind::kHann, 0).size(), 0u);
  EXPECT_EQ(make_window(WindowKind::kHann, 1).size(), 1u);
}

// ------------------------------------------------ SIMD kernel dispatch
//
// Equivalence fuzzing: every kernel variant compiled into this binary and
// runnable on this CPU must be byte-identical to the scalar reference, on
// aligned and deliberately misaligned operands alike. On a machine without
// AVX2 (or with -DMMSOC_SIMD=OFF) the variant list is simply shorter; the
// scalar-vs-scalar case always runs.

/// Restores the process-wide active kernel table on scope exit.
class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : saved_(active_simd_level()) {}
  ~ScopedSimdLevel() { set_simd_level(saved_); }

 private:
  SimdLevel saved_;
};

std::vector<const KernelTable*> runnable_tables() {
  std::vector<const KernelTable*> out;
  for (const auto level : compiled_levels()) {
    if (!cpu_supports(level)) continue;
    out.push_back(kernel_table(level));
  }
  return out;
}

TEST(SimdDispatch, ScalarAlwaysRegisteredAndSwitchable) {
  ScopedSimdLevel restore;
  ASSERT_NE(kernel_table(SimdLevel::kScalar), nullptr);
  EXPECT_TRUE(cpu_supports(SimdLevel::kScalar));
  EXPECT_TRUE(set_simd_level(SimdLevel::kScalar));
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  for (const auto level : compiled_levels()) {
    ASSERT_NE(kernel_table(level), nullptr);
    EXPECT_EQ(kernel_table(level)->level, level);
    SimdLevel parsed;
    ASSERT_TRUE(parse_simd_level(simd_level_name(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdLevel parsed;
  EXPECT_FALSE(parse_simd_level("mmx", parsed));
}

TEST(SimdDispatch, Sad16MatchesScalarOnRandomStridesAndOffsets) {
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0x5ad16);
  for (int iter = 0; iter < 200; ++iter) {
    // Random strides >= 16 and byte offsets 0..7 exercise every load
    // alignment the Plane fast path and the clamped fallback can produce.
    const auto a_stride = static_cast<std::ptrdiff_t>(rng.next_in(16, 96));
    const auto b_stride = static_cast<std::ptrdiff_t>(rng.next_in(16, 96));
    const auto a_off = static_cast<std::size_t>(rng.next_below(8));
    const auto b_off = static_cast<std::size_t>(rng.next_below(8));
    std::vector<std::uint8_t> a(a_off + 16 * a_stride + 16);
    std::vector<std::uint8_t> b(b_off + 16 * b_stride + 16);
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_below(256));
    const auto want =
        scalar->sad16(a.data() + a_off, a_stride, b.data() + b_off, b_stride);
    for (const auto* table : runnable_tables()) {
      EXPECT_EQ(table->sad16(a.data() + a_off, a_stride, b.data() + b_off,
                             b_stride),
                want)
          << simd_level_name(table->level) << " iter " << iter;
    }
  }
}

TEST(SimdDispatch, Sad16CandidatesMatchScalar) {
  // One search step's batch: n windows sharing one stride, read in place
  // from a plane-like buffer or from a scratch copy laid out with the same
  // stride, each scored against one current window at its own stride.
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0xba7c4);
  for (int iter = 0; iter < 300; ++iter) {
    const int n = 1 + static_cast<int>(iter % 33);
    const auto cur_stride = static_cast<std::ptrdiff_t>(rng.next_in(16, 96));
    const auto stride = static_cast<std::ptrdiff_t>(rng.next_in(16, 96));
    const auto cur_off = static_cast<std::size_t>(rng.next_below(8));
    std::vector<std::uint8_t> cur(cur_off + 16 * cur_stride);
    // A plane 40 columns wider and taller than a window, and a scratch
    // area of n windows stacked at `stride`.
    std::vector<std::uint8_t> plane(56 * stride + 56);
    std::vector<std::uint8_t> scratch(n * 16 * stride + 16);
    for (auto* buf : {&cur, &plane, &scratch}) {
      for (auto& v : *buf) v = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const bool in_place = iter % 2 == 0;
    std::vector<const std::uint8_t*> wins(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      wins[i] = in_place
                    ? plane.data() + rng.next_below(40) * stride +
                          rng.next_below(40)
                    : scratch.data() + i * 16 * stride + rng.next_below(8);
    }
    std::vector<std::uint32_t> want(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      want[i] = scalar->sad16(cur.data() + cur_off, cur_stride, wins[i], stride);
    }
    for (const auto* table : runnable_tables()) {
      std::vector<std::uint32_t> got(static_cast<std::size_t>(n) + 1, 0xdeadbeef);
      table->sad16_candidates(cur.data() + cur_off, cur_stride, wins.data(),
                              stride, n, got.data());
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], want[i])
            << simd_level_name(table->level) << " iter " << iter << " window "
            << i << " of " << n << (in_place ? " in place" : " in scratch");
      }
      EXPECT_EQ(got[n], 0xdeadbeef) << "wrote past n at "
                                    << simd_level_name(table->level);
    }
  }
}

TEST(SimdDispatch, ReconstructAdderBitExact) {
  // clamp_u8(round_half_away(r + p)) at every level: exact .5 ties of
  // either sign, their float neighbours, sums far outside [0, 255], every
  // prediction byte in every lane, any strides, and in place.
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0x4ec0);
  constexpr std::ptrdiff_t kMaxStride = 40;
  alignas(32) float r_buf[65];
  std::vector<std::uint8_t> pred(8 + 8 * kMaxStride), want(pred.size()),
      got(pred.size());
  for (int iter = 0; iter < 512; ++iter) {
    float* r = r_buf + (iter % 2);
    const auto stride = static_cast<std::ptrdiff_t>(rng.next_in(8, kMaxStride));
    const auto off = static_cast<std::size_t>(rng.next_below(8));
    for (auto& v : pred) v = static_cast<std::uint8_t>(rng.next_below(256));
    for (int i = 0; i < 64; ++i) {
      // Over 256 iterations each lane sees every prediction byte.
      const auto p = static_cast<std::uint8_t>((iter + 37 * i) % 256);
      pred[off + (i / 8) * stride + i % 8] = p;
      const auto k = static_cast<float>(rng.next_in(-400, 700));
      float sum = 0.0f;
      switch ((iter + i) % 4) {
        case 0:  // an exact tie
          sum = k + (rng.next_below(2) != 0 ? 0.5f : -0.5f);
          break;
        case 1:  // a tie's float neighbour
          sum = std::nextafter(k + 0.5f, rng.next_below(2) != 0 ? INFINITY
                                                                  : -INFINITY);
          break;
        case 2:  // anything the IDCT gives
          sum = static_cast<float>(rng.next_double_in(-400.0, 700.0));
          break;
        default:  // far outside the pixel range
          sum = static_cast<float>(rng.next_double_in(-1e6, 1e6));
          break;
      }
      r[i] = sum - static_cast<float>(p);
    }
    std::fill(want.begin(), want.end(), std::uint8_t{0});
    scalar->reconstruct8x8(r, pred.data() + off, stride, want.data() + off,
                           stride);
    for (int i = 0; i < 64; ++i) {
      const std::size_t at = off + (i / 8) * stride + i % 8;
      ASSERT_EQ(want[at], common::clamp_u8(common::round_half_away(
                              r[i] + static_cast<float>(pred[at]))))
          << "scalar reference drifted at " << i << " iter " << iter;
    }
    for (const auto* table : runnable_tables()) {
      std::fill(got.begin(), got.end(), std::uint8_t{0});
      table->reconstruct8x8(r, pred.data() + off, stride, got.data() + off,
                            stride);
      EXPECT_EQ(got, want) << simd_level_name(table->level) << " iter " << iter;
      // The contract allows out == pred.
      auto inplace = pred;
      table->reconstruct8x8(r, inplace.data() + off, stride,
                            inplace.data() + off, stride);
      for (int i = 0; i < 64; ++i) {
        const std::size_t at = off + (i / 8) * stride + i % 8;
        EXPECT_EQ(inplace[at], want[at])
            << simd_level_name(table->level) << " in place iter " << iter;
      }
    }
  }
}

TEST(SimdDispatch, FloatDctVariantsBitExact) {
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0xdc7f32);
  // Slot 1 of an alignas(32) array is the worst-case misaligned pointer.
  alignas(32) float in_buf[65], want[64], got[64];
  for (int iter = 0; iter < 300; ++iter) {
    const bool misalign = (iter % 2) != 0;
    float* in = in_buf + (misalign ? 1 : 0);
    for (int i = 0; i < 64; ++i)
      in[i] = static_cast<float>(rng.next_double_in(-512.0, 512.0));
    for (const bool inverse : {false, true}) {
      auto fn = [&](const KernelTable* t) {
        return inverse ? t->idct8x8_f32 : t->fdct8x8_f32;
      };
      fn(scalar)(in, want);
      for (const auto* table : runnable_tables()) {
        fn(table)(in, got);
        EXPECT_EQ(std::memcmp(got, want, sizeof(want)), 0)
            << simd_level_name(table->level) << (inverse ? " idct" : " fdct")
            << " iter " << iter << (misalign ? " misaligned" : " aligned");
        // The contract allows in-place operation.
        alignas(32) float inplace[64];
        std::memcpy(inplace, in, sizeof(inplace));
        fn(table)(inplace, inplace);
        EXPECT_EQ(std::memcmp(inplace, want, sizeof(want)), 0)
            << simd_level_name(table->level) << " in-place iter " << iter;
      }
    }
  }
}

TEST(SimdDispatch, Q15DctVariantsBitExactAcrossFullInt16Range) {
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0xdc7415);
  alignas(32) std::int16_t in_buf[65], want[64], got[64];
  for (int iter = 0; iter < 300; ++iter) {
    std::int16_t* in = in_buf + (iter % 2);
    if (iter == 0) {
      for (int i = 0; i < 64; ++i) in[i] = 32767;  // row-pass overflow probe
    } else if (iter == 1) {
      for (int i = 0; i < 64; ++i) in[i] = -32768;
    } else {
      for (int i = 0; i < 64; ++i)
        in[i] = static_cast<std::int16_t>(rng.next_in(-32768, 32767));
    }
    for (const bool inverse : {false, true}) {
      auto fn = [&](const KernelTable* t) {
        return inverse ? t->idct8x8_q15 : t->fdct8x8_q15;
      };
      fn(scalar)(in, want);
      for (const auto* table : runnable_tables()) {
        fn(table)(in, got);
        EXPECT_EQ(std::memcmp(got, want, sizeof(want)), 0)
            << simd_level_name(table->level) << (inverse ? " idct" : " fdct")
            << " iter " << iter;
      }
    }
  }
}

TEST(SimdDispatch, Quantize64ExactIncludingHalfwayTies) {
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0x9a47);
  alignas(32) float coeffs_buf[65], steps_buf[65];
  alignas(32) std::int16_t want[64], got[64];
  for (int iter = 0; iter < 300; ++iter) {
    float* coeffs = coeffs_buf + (iter % 2);
    float* steps = steps_buf + (iter % 2);
    if (iter % 5 == 0) {
      // Exact .5 ties: odd/2.0 must round away from zero like lroundf,
      // not to even like the raw cvtps instruction.
      for (int i = 0; i < 64; ++i) {
        const auto odd = 2 * rng.next_in(-900, 900) + 1;
        steps[i] = 2.0f;
        coeffs[i] = static_cast<float>(odd);
      }
    } else {
      for (int i = 0; i < 64; ++i) {
        coeffs[i] = static_cast<float>(rng.next_double_in(-4096.0, 4096.0));
        steps[i] = static_cast<float>(rng.next_double_in(0.25, 64.0));
      }
    }
    scalar->quantize64(coeffs, steps, want);
    for (int i = 0; i < 64; ++i) {
      const auto l = std::lroundf(coeffs[i] / steps[i]);
      ASSERT_EQ(want[i], static_cast<std::int16_t>(
                             std::clamp(l, -32768l, 32767l)))
          << "scalar reference drifted from lroundf at " << i;
    }
    for (const auto* table : runnable_tables()) {
      table->quantize64(coeffs, steps, got);
      EXPECT_EQ(std::memcmp(got, want, sizeof(want)), 0)
          << simd_level_name(table->level) << " iter " << iter;
    }
  }
}

TEST(SimdDispatch, Dequantize64BitExact) {
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0xde9a47);
  alignas(32) std::int16_t levels_buf[65];
  alignas(32) float steps_buf[65], want[64], got[64];
  for (int iter = 0; iter < 200; ++iter) {
    std::int16_t* levels = levels_buf + (iter % 2);
    float* steps = steps_buf + (iter % 2);
    for (int i = 0; i < 64; ++i) {
      levels[i] = static_cast<std::int16_t>(rng.next_in(-32768, 32767));
      steps[i] = static_cast<float>(rng.next_double_in(0.25, 64.0));
    }
    scalar->dequantize64(levels, steps, want);
    for (const auto* table : runnable_tables()) {
      table->dequantize64(levels, steps, got);
      EXPECT_EQ(std::memcmp(got, want, sizeof(want)), 0)
          << simd_level_name(table->level) << " iter " << iter;
    }
  }
}

TEST(SimdDispatch, FilterbankMacsBitExact) {
  const auto scalar = kernel_table(SimdLevel::kScalar);
  Rng rng(0xfb32);
  alignas(32) double x_buf[65], bands_buf[33];
  alignas(32) double want64[64], got64[64], want32[32], got32[32];
  for (int iter = 0; iter < 200; ++iter) {
    double* x = x_buf + (iter % 2);
    double* bands = bands_buf + (iter % 2);
    for (int i = 0; i < 64; ++i) x[i] = rng.next_double_in(-1.0, 1.0);
    for (int i = 0; i < 32; ++i) bands[i] = rng.next_double_in(-4.0, 4.0);
    scalar->fb_analyze(x, want32);
    scalar->fb_synth(bands, want64);
    for (const auto* table : runnable_tables()) {
      table->fb_analyze(x, got32);
      EXPECT_EQ(std::memcmp(got32, want32, sizeof(want32)), 0)
          << simd_level_name(table->level) << " analyze iter " << iter;
      table->fb_synth(bands, got64);
      EXPECT_EQ(std::memcmp(got64, want64, sizeof(want64)), 0)
          << simd_level_name(table->level) << " synth iter " << iter;
    }
  }
}

TEST(SimdDispatch, SensorNoiseRowMatchesScalar) {
  // clamp_u8(int((v + sigma * g) + 0.5)) at every level: every row length
  // up to 67 (the vector body and every tail), v on exact k - 0.5 ties
  // and their neighbours (t lands on an integer or one ulp either side),
  // sums below 0 and above 255, rows whose counters wrap past 2^64, and
  // misaligned operands. No level may write past n.
  const auto scalar = kernel_table(SimdLevel::kScalar);
  const double* table = video::sensor_noise_table().data();
  Rng rng(0x5e75);
  constexpr std::size_t kMaxN = 67;
  constexpr std::uint8_t kGuard = 0xA5;
  std::vector<double> v_buf(kMaxN + 1);
  std::vector<std::uint8_t> want(kMaxN + 2), got(kMaxN + 2);
  for (int iter = 0; iter < 4 * 68; ++iter) {
    const std::size_t n = static_cast<std::size_t>(iter % 68);
    const double sigma = std::array{0.0, 1.0, 0.3, 37.5}[iter / 68];
    const std::uint64_t counter =
        iter % 3 == 0 ? ~std::uint64_t{0} - rng.next_below(n + 1)  // wraps
                      : rng.next();
    double* v = v_buf.data() + (iter % 2);
    for (std::size_t x = 0; x < n; ++x) {
      const double g = table[common::mix64(counter + x) >> 52];
      const double tie = static_cast<double>(rng.next_in(-3, 260)) - 0.5;
      switch (rng.next_below(6)) {
        case 0:  // the sum lands on k - 0.5 up to rounding of v - sigma * g
          v[x] = tie - sigma * g;
          break;
        case 1:
          v[x] = tie;
          break;
        case 2:
          v[x] = std::nextafter(tie, 1e9);
          break;
        case 3:
          v[x] = std::nextafter(tie, -1e9);
          break;
        case 4:  // far outside [0, 255], inside the kernel's int range
          v[x] = rng.next_double_in(-1e6, 1e6);
          break;
        default:
          v[x] = rng.next_double_in(-40.0, 300.0);
          break;
      }
    }
    const std::size_t out_off = static_cast<std::size_t>(iter % 2);
    std::fill(want.begin(), want.end(), kGuard);
    scalar->sensor_noise_row(v, n, sigma, counter, table, want.data() + out_off);
    for (std::size_t x = 0; x < n; ++x) {  // scalar against the definition
      const double t =
          (v[x] + sigma * table[common::mix64(counter + x) >> 52]) + 0.5;
      ASSERT_EQ(want[out_off + x], common::clamp_u8(static_cast<int>(t)))
          << "n " << n << " x " << x;
    }
    for (const auto* t : runnable_tables()) {
      std::fill(got.begin(), got.end(), kGuard);
      t->sensor_noise_row(v, n, sigma, counter, table, got.data() + out_off);
      ASSERT_EQ(got, want) << simd_level_name(t->level) << " n " << n
                           << " sigma " << sigma << " counter " << counter;
    }
  }
}

TEST(SimdDispatch, Crc32MatchesScalar) {
  // Every level's crc32_update equals the bytewise polynomial reference:
  // every length 0..300 (the table path under 64 bytes, the fold above,
  // tails of every residue mod 16) at misaligned starts, two chained
  // updates split at every offset, a CIF plane, and the check value.
  Rng rng(0xc4c32);
  std::vector<std::uint8_t> buf(300 + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  std::vector<std::uint8_t> plane(352 * 288);
  for (auto& b : plane) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t plane_want =
      reference_crc_state(0xFFFFFFFFu, plane.data(), plane.size());
  for (const auto* t : runnable_tables()) {
    SCOPED_TRACE(simd_level_name(t->level));
    EXPECT_EQ(t->crc32_update(0xFFFFFFFFu, check, 9) ^ 0xFFFFFFFFu, 0xCBF43926u);
    for (std::size_t offset = 0; offset < 16; offset += 5) {
      const std::uint8_t* p = buf.data() + offset;
      for (std::size_t len = 0; len <= 300; ++len) {
        const std::uint32_t init = static_cast<std::uint32_t>(len * 0x9E3779B9u);
        ASSERT_EQ(t->crc32_update(init, p, len), reference_crc_state(init, p, len))
            << "offset " << offset << " length " << len;
      }
    }
    const std::uint32_t whole = reference_crc_state(0xFFFFFFFFu, buf.data() + 1, 300);
    for (std::size_t split = 0; split <= 300; ++split) {
      const std::uint32_t head = t->crc32_update(0xFFFFFFFFu, buf.data() + 1, split);
      ASSERT_EQ(t->crc32_update(head, buf.data() + 1 + split, 300 - split), whole)
          << "split at " << split;
    }
    EXPECT_EQ(t->crc32_update(0xFFFFFFFFu, plane.data(), plane.size()), plane_want);
  }
}

// FATE-style stream check: the full Fig.1 encoder (motion estimation, DCT,
// quantizer, entropy coder, rate control) must emit a byte-identical
// bitstream at every SIMD level — the strongest end-to-end witness that
// dispatch never changes numerics.
TEST(SimdDispatch, EncodedBitstreamCrcIdenticalAcrossLevels) {
  ScopedSimdLevel restore;
  constexpr int kWidth = 64, kHeight = 48, kFrames = 8;
  const auto scene = video::scene_high_motion(77);
  const auto encode_crc = [&] {
    video::EncoderConfig cfg;
    cfg.width = kWidth;
    cfg.height = kHeight;
    cfg.gop_size = 4;  // I and P frames both in the stream
    cfg.rate_control = true;
    cfg.me_algo = video::SearchAlgorithm::kDiamond;
    video::VideoEncoder enc(cfg);
    dsp::Crc32 crc;
    for (int i = 0; i < kFrames; ++i) {
      const auto frame =
          video::SyntheticVideo::render(kWidth, kHeight, scene, i);
      const auto coded = enc.encode(frame);
      crc.update(coded.bytes);
    }
    return crc.value();
  };
  ASSERT_TRUE(set_simd_level(SimdLevel::kScalar));
  const auto want = encode_crc();
  for (const auto level : compiled_levels()) {
    if (!cpu_supports(level)) continue;
    ASSERT_TRUE(set_simd_level(level));
    EXPECT_EQ(encode_crc(), want)
        << "bitstream diverged at level " << simd_level_name(level);
  }
}

}  // namespace
}  // namespace mmsoc::dsp
