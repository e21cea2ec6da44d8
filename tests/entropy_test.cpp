// Tests for entropy coding: zig-zag, Huffman, (run, level) symbols, rate
// buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/bitstream.h"
#include "common/rng.h"
#include "entropy/huffman.h"
#include "entropy/rate_buffer.h"
#include "entropy/rle.h"
#include "entropy/zigzag.h"

namespace mmsoc::entropy {
namespace {

using common::BitReader;
using common::BitWriter;
using common::Rng;

// ------------------------------------------------------------------ zigzag

TEST(ZigZag, IsPermutation) {
  std::array<bool, 64> seen{};
  for (const int idx : kZigZag8x8) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 64);
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
}

TEST(ZigZag, InverseIsConsistent) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(kZigZagInv8x8[static_cast<std::size_t>(kZigZag8x8[static_cast<std::size_t>(i)])], i);
  }
}

TEST(ZigZag, StartsAtDcAndWalksAntidiagonals) {
  EXPECT_EQ(kZigZag8x8[0], 0);   // DC first
  EXPECT_EQ(kZigZag8x8[1], 1);   // right
  EXPECT_EQ(kZigZag8x8[2], 8);   // down-left
  EXPECT_EQ(kZigZag8x8[63], 63); // highest frequency last
  // Scan position is ordered by anti-diagonal (frequency) overall:
  // position p's (row+col) never decreases by more than 0 across steps.
  for (int i = 1; i < 64; ++i) {
    const int prev = kZigZag8x8[static_cast<std::size_t>(i - 1)];
    const int cur = kZigZag8x8[static_cast<std::size_t>(i)];
    const int dprev = prev / 8 + prev % 8;
    const int dcur = cur / 8 + cur % 8;
    EXPECT_GE(dcur, dprev - 1);
  }
}

// ----------------------------------------------------------------- huffman

TEST(Huffman, RejectsEmptyAndAllZero) {
  EXPECT_FALSE(HuffmanCode::from_frequencies({}).is_ok());
  const std::uint64_t zeros[4] = {0, 0, 0, 0};
  EXPECT_FALSE(HuffmanCode::from_frequencies({zeros, 4}).is_ok());
}

TEST(Huffman, SingleSymbolGetsOneBit) {
  const std::uint64_t freqs[3] = {0, 5, 0};
  auto code = HuffmanCode::from_frequencies({freqs, 3});
  ASSERT_TRUE(code.is_ok());
  EXPECT_EQ(code.value().length(1), 1u);
  EXPECT_EQ(code.value().length(0), 0u);
}

TEST(Huffman, TwoSymbolsGetOneBitEach) {
  const std::uint64_t freqs[2] = {1, 1000};
  auto code = HuffmanCode::from_frequencies({freqs, 2});
  ASSERT_TRUE(code.is_ok());
  EXPECT_EQ(code.value().length(0), 1u);
  EXPECT_EQ(code.value().length(1), 1u);
}

TEST(Huffman, MoreFrequentSymbolsGetShorterCodes) {
  const std::uint64_t freqs[4] = {1000, 100, 10, 1};
  auto code = HuffmanCode::from_frequencies({freqs, 4});
  ASSERT_TRUE(code.is_ok());
  EXPECT_LE(code.value().length(0), code.value().length(1));
  EXPECT_LE(code.value().length(1), code.value().length(2));
  EXPECT_LE(code.value().length(2), code.value().length(3));
}

TEST(Huffman, KraftEqualityForCompleteCode) {
  Rng rng(1);
  std::vector<std::uint64_t> freqs(50);
  for (auto& f : freqs) f = rng.next_below(1000) + 1;
  auto code = HuffmanCode::from_frequencies(freqs);
  ASSERT_TRUE(code.is_ok());
  double kraft = 0.0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    kraft += std::pow(2.0, -static_cast<double>(code.value().length(s)));
  }
  EXPECT_NEAR(kraft, 1.0, 1e-9);  // optimal codes are complete
}

TEST(Huffman, ExpectedLengthWithinOneBitOfEntropy) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint64_t> freqs(64);
    for (auto& f : freqs) f = rng.next_below(10000) + 1;
    auto code = HuffmanCode::from_frequencies(freqs);
    ASSERT_TRUE(code.is_ok());
    const double h = entropy_bits(freqs);
    const double l = code.value().expected_length(freqs);
    EXPECT_GE(l, h - 1e-9);
    EXPECT_LE(l, h + 1.0);
  }
}

TEST(Huffman, RespectsMaxBitsLimit) {
  // Exponentially skewed frequencies would produce very long codes
  // without the limit.
  std::vector<std::uint64_t> freqs(20);
  std::uint64_t f = 1;
  for (auto& x : freqs) {
    x = f;
    f *= 3;
  }
  auto code = HuffmanCode::from_frequencies(freqs, 8);
  ASSERT_TRUE(code.is_ok());
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    EXPECT_LE(code.value().length(s), 8u);
    EXPECT_GE(code.value().length(s), 1u);
  }
}

TEST(Huffman, MaxBitsTooSmallIsRejected) {
  std::vector<std::uint64_t> freqs(300, 1);
  EXPECT_FALSE(HuffmanCode::from_frequencies(freqs, 8).is_ok());  // 2^8 < 300
}

TEST(Huffman, EncodeDecodeRoundTrip) {
  Rng rng(3);
  std::vector<std::uint64_t> freqs(128);
  for (auto& f : freqs) f = rng.next_below(500) + 1;
  auto built = HuffmanCode::from_frequencies(freqs);
  ASSERT_TRUE(built.is_ok());
  const auto& code = built.value();

  std::vector<std::size_t> symbols;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    const auto s = rng.next_below(freqs.size());
    symbols.push_back(s);
    ASSERT_TRUE(code.encode(s, w));
  }
  const auto bytes = w.take();
  BitReader r(bytes);
  for (const auto expected : symbols) {
    EXPECT_EQ(code.decode(r), static_cast<int>(expected));
  }
}

TEST(Huffman, SymbolWithoutCodeCannotEncode) {
  const std::uint64_t freqs[3] = {5, 0, 5};
  auto code = HuffmanCode::from_frequencies({freqs, 3});
  ASSERT_TRUE(code.is_ok());
  BitWriter w;
  EXPECT_FALSE(code.value().encode(1, w));
}

TEST(Huffman, FromLengthsReconstructsIdenticalCode) {
  Rng rng(4);
  std::vector<std::uint64_t> freqs(40);
  for (auto& f : freqs) f = rng.next_below(999) + 1;
  auto a = HuffmanCode::from_frequencies(freqs);
  ASSERT_TRUE(a.is_ok());
  auto b = HuffmanCode::from_lengths(a.value().lengths());
  ASSERT_TRUE(b.is_ok());
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    EXPECT_EQ(a.value().length(s), b.value().length(s));
    EXPECT_EQ(a.value().codeword(s), b.value().codeword(s));
  }
}

TEST(Huffman, OversubscribedLengthsRejected) {
  // Three symbols of length 1 violate Kraft.
  const std::uint8_t lengths[3] = {1, 1, 1};
  EXPECT_FALSE(HuffmanCode::from_lengths({lengths, 3}).is_ok());
}

TEST(Huffman, LengthTableSerializationRoundTrip) {
  Rng rng(5);
  std::vector<std::uint64_t> freqs(200, 0);
  // Sparse alphabet: long zero runs exercise the RLE path.
  for (int i = 0; i < 30; ++i) freqs[rng.next_below(200)] = rng.next_below(100) + 1;
  auto code = HuffmanCode::from_frequencies(freqs);
  ASSERT_TRUE(code.is_ok());
  BitWriter w;
  write_code_lengths(code.value(), w);
  const auto bytes = w.take();
  BitReader r(bytes);
  auto parsed = read_code_lengths(r);
  ASSERT_TRUE(parsed.is_ok());
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    EXPECT_EQ(parsed.value().length(s), code.value().length(s));
  }
}

TEST(Huffman, DecodeOnGarbageReturnsMinusOne) {
  const std::uint64_t freqs[5] = {100, 50, 20, 10, 3};
  auto code = HuffmanCode::from_frequencies({freqs, 5});
  ASSERT_TRUE(code.is_ok());
  BitReader r({});  // empty stream
  EXPECT_EQ(code.value().decode(r), -1);
}

TEST(Entropy, UniformDistributionMaximizesEntropy) {
  std::vector<std::uint64_t> uniform(16, 10);
  EXPECT_NEAR(entropy_bits(uniform), 4.0, 1e-9);
  std::vector<std::uint64_t> skewed(16, 1);
  skewed[0] = 10000;
  EXPECT_LT(entropy_bits(skewed), 1.0);
  EXPECT_DOUBLE_EQ(entropy_bits({}), 0.0);
}

// --------------------------------------------------------------------- rle

TEST(Rle, SymbolMappingRoundTripsInRange) {
  for (int run = 0; run <= 31; ++run) {
    for (int mag = 1; mag <= 16; ++mag) {
      const RunLevel rl{static_cast<std::uint8_t>(run),
                        static_cast<std::int16_t>(mag)};
      const int sym = run_level_to_symbol(rl);
      ASSERT_NE(sym, kEscapeSymbol);
      ASSERT_NE(sym, kEobSymbol);
      const auto back = symbol_to_run_level(sym);
      EXPECT_EQ(back.run, rl.run);
      EXPECT_EQ(back.level, rl.level);
    }
  }
}

TEST(Rle, LargeValuesUseEscape) {
  EXPECT_EQ(run_level_to_symbol({0, 17}), kEscapeSymbol);
  EXPECT_EQ(run_level_to_symbol({32, 1}), kEscapeSymbol);
  EXPECT_EQ(run_level_to_symbol({0, 0}), kEobSymbol);
  EXPECT_EQ(run_level_to_symbol({5, -9}), run_level_to_symbol({5, 9}));
}

// ------------------------------------------------------------- rate buffer

TEST(RateBuffer, SteadyStateAtTargetRate) {
  RateBuffer buf(100000, 1000);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(buf.add_frame(1000));
  }
  EXPECT_EQ(buf.overflow_count(), 0u);
  EXPECT_EQ(buf.underflow_count(), 0u);
  EXPECT_NEAR(buf.fullness_ratio(), 0.5, 0.02);
}

TEST(RateBuffer, OverflowDetected) {
  RateBuffer buf(10000, 100);
  bool ok = true;
  for (int i = 0; i < 100; ++i) ok = buf.add_frame(1000) && ok;
  EXPECT_FALSE(ok);
  EXPECT_GT(buf.overflow_count(), 0u);
}

TEST(RateBuffer, UnderflowDetected) {
  RateBuffer buf(10000, 2000);
  bool ok = true;
  for (int i = 0; i < 10; ++i) ok = buf.add_frame(10) && ok;
  EXPECT_FALSE(ok);
  EXPECT_GT(buf.underflow_count(), 0u);
}

TEST(RateBuffer, QuantizerSuggestionMonotoneInFullness) {
  RateBuffer buf(100000, 10);
  int prev_q = buf.suggest_quantizer(2, 31);
  for (int i = 0; i < 20; ++i) {
    buf.add_frame(4000);
    const int q = buf.suggest_quantizer(2, 31);
    EXPECT_GE(q, prev_q);  // fuller buffer never suggests finer quantization
    prev_q = q;
  }
  EXPECT_EQ(prev_q, 31);
  EXPECT_GE(buf.suggest_quantizer(2, 31), 2);
}

}  // namespace
}  // namespace mmsoc::entropy
