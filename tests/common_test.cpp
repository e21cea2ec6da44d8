// Unit and property tests for the common substrate: bitstream, PRNG,
// fixed-point, math utilities, status types.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "common/fixed.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/status.h"

namespace mmsoc::common {
namespace {

// ---------------------------------------------------------------- bitstream

TEST(BitWriter, EmptyTakeIsEmpty) {
  BitWriter w;
  EXPECT_TRUE(w.take().empty());
}

TEST(BitWriter, SingleByteMsbFirst) {
  BitWriter w;
  w.put_bits(0b10110001, 8);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110001);
}

TEST(BitWriter, CrossByteField) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0b11111, 5);
  w.put_bits(0xAB, 8);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0b10111111);
  EXPECT_EQ(bytes[1], 0xAB);
}

TEST(BitWriter, AlignPadsWithZeros) {
  BitWriter w;
  w.put_bits(0b1, 1);
  w.align_to_byte();
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10000000);
}

TEST(BitWriter, SixtyFourBitValue) {
  BitWriter w;
  const std::uint64_t v = 0xDEADBEEFCAFEBABEull;
  w.put_bits(v, 64);
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(64), v);
}

// Fields appended one bit at a time, MSB first, zero-padded to a byte:
// the reference the writer's word-at-a-time accumulator is checked against.
class BitByBit {
 public:
  void put(std::uint64_t value, unsigned count) {
    for (unsigned i = count; i-- > 0;) bits_.push_back((value >> i) & 1u);
  }
  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    std::vector<std::uint8_t> out((bits_.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i]) out[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
    return out;
  }

 private:
  std::vector<bool> bits_;
};

TEST(BitWriter, PutBitsMatchesBitByBitAtEveryAccumulatorOffset) {
  Rng rng(17);
  for (const unsigned count : {0u, 1u, 7u, 8u, 31u, 32u, 56u, 57u, 64u}) {
    // Offsets past 64 start after the accumulator has spilled once.
    for (unsigned offset = 0; offset < 128; ++offset) {
      BitWriter w;
      BitByBit ref;
      for (unsigned left = offset; left > 0;) {
        const unsigned c = std::min<unsigned>(
            left, static_cast<unsigned>(rng.next_in(1, 13)));
        const std::uint64_t v = rng.next();
        w.put_bits(v, c);
        ref.put(v, c);
        left -= c;
      }
      const std::uint64_t v = rng.next();  // bits above `count` are ignored
      w.put_bits(v, count);
      ref.put(v, count);
      ASSERT_EQ(w.bit_count(), offset + count);
      w.put_bits(0b101, 3);
      ref.put(0b101, 3);
      ASSERT_EQ(w.take(), ref.bytes())
          << "count " << count << " at offset " << offset;
    }
  }
}

TEST(BitWriter, ReusedBufferDropsStaleBytesAndKeepsCapacity) {
  std::vector<std::uint8_t> stale(256, 0xA5);
  const std::uint8_t* storage = stale.data();
  BitWriter fresh;
  BitWriter reused(std::move(stale));
  EXPECT_EQ(reused.bit_count(), 0u);
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {  // under 1600 bits: fits the old capacity
    const auto c = static_cast<unsigned>(rng.next_in(0, 16));
    const std::uint64_t v = rng.next();
    fresh.put_bits(v, c);
    reused.put_bits(v, c);
  }
  const auto bytes = reused.take();
  EXPECT_EQ(bytes, fresh.take());
  EXPECT_EQ(bytes.data(), storage);
}

TEST(BitStream, RandomFieldRoundTrip) {
  // Property: any sequence of (value, width) fields reads back exactly.
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    BitWriter w;
    const int n = static_cast<int>(rng.next_in(1, 200));
    for (int i = 0; i < n; ++i) {
      const unsigned width = static_cast<unsigned>(rng.next_in(1, 64));
      std::uint64_t value = rng.next();
      if (width < 64) value &= (std::uint64_t{1} << width) - 1;
      fields.emplace_back(value, width);
      w.put_bits(value, width);
    }
    const auto bytes = w.take();
    BitReader r(bytes);
    for (const auto& [value, width] : fields) {
      EXPECT_EQ(r.get_bits(width), value) << "trial " << trial;
    }
    EXPECT_TRUE(r.ok());
  }
}

TEST(BitReader, UnderrunClearsOkAndReturnsZero) {
  const std::uint8_t one_byte[] = {0xFF};
  BitReader r({one_byte, 1});
  EXPECT_EQ(r.get_bits(8), 0xFFu);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_bits(1), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(BitReader, PeekDoesNotConsume) {
  const std::uint8_t data[] = {0b10100000};
  BitReader r({data, 1});
  EXPECT_EQ(r.peek_bits(3), 0b101u);
  EXPECT_EQ(r.peek_bits(3), 0b101u);
  EXPECT_EQ(r.get_bits(3), 0b101u);
}

TEST(BitReader, PeekPastEndReadsZeros) {
  const std::uint8_t data[] = {0b11000000};
  BitReader r({data, 1});
  r.skip_bits(7);
  EXPECT_EQ(r.peek_bits(8), 0u);  // last real bit is 0, rest zero-padded
  EXPECT_TRUE(r.ok());            // peek never clears ok
}

class ExpGolombRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ExpGolombRoundTrip, Unsigned) {
  BitWriter w;
  w.put_ue(GetParam());
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_ue(), GetParam());
  EXPECT_TRUE(r.ok());
}

TEST_P(ExpGolombRoundTrip, SignedBothSigns) {
  const auto magnitude = static_cast<std::int32_t>(GetParam() & 0x7FFFFFFF);
  for (const std::int32_t v : {magnitude, -magnitude}) {
    BitWriter w;
    w.put_se(v);
    const auto bytes = w.take();
    BitReader r(bytes);
    EXPECT_EQ(r.get_se(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, ExpGolombRoundTrip,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 8u, 100u,
                                           255u, 256u, 65535u, 1u << 20,
                                           0x7FFFFFFEu));

TEST(ExpGolomb, SignedExtremes) {
  BitWriter w;
  EXPECT_THROW(w.put_se(std::numeric_limits<std::int32_t>::min()),
               std::invalid_argument);
  EXPECT_EQ(w.bit_count(), 0u) << "a rejected value writes nothing";
  const std::int32_t values[] = {std::numeric_limits<std::int32_t>::min() + 1,
                                 std::numeric_limits<std::int32_t>::max()};
  for (const auto v : values) w.put_se(v);
  const auto bytes = w.take();
  BitReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.get_se(), v);
  EXPECT_TRUE(r.ok());
}

TEST(ExpGolomb, SequenceRoundTrip) {
  Rng rng(7);
  BitWriter w;
  std::vector<std::int32_t> values;
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int32_t>(rng.next_in(-100000, 100000));
    values.push_back(v);
    w.put_se(v);
  }
  const auto bytes = w.take();
  BitReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.get_se(), v);
  EXPECT_TRUE(r.ok());
}

TEST(BitReader, AlignToByteSkipsToBoundary) {
  const std::uint8_t data[] = {0xFF, 0x01};
  BitReader r({data, 2});
  r.get_bits(3);
  r.align_to_byte();
  EXPECT_EQ(r.bit_position(), 8u);
  EXPECT_EQ(r.get_bits(8), 0x01u);
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_EQ(rng.next_in(9, 9), 9);
  EXPECT_EQ(rng.next_in(10, 3), 10);  // degenerate bounds return lo
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  EXPECT_NEAR(m, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

// -------------------------------------------------------------------- fixed

TEST(Fixed, FromIntRoundTrip) {
  for (int v = -1000; v <= 1000; v += 37) {
    EXPECT_EQ(Q15::from_int(v).to_int(), v);
  }
}

TEST(Fixed, FromDoubleAccuracy) {
  for (double v = -10.0; v <= 10.0; v += 0.137) {
    EXPECT_NEAR(Q15::from_double(v).to_double(), v, 1.0 / 32768.0);
  }
}

TEST(Fixed, AdditionMatchesDouble) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.next_double_in(-100, 100);
    const double b = rng.next_double_in(-100, 100);
    const auto r = Q15::from_double(a) + Q15::from_double(b);
    EXPECT_NEAR(r.to_double(), a + b, 3.0 / 32768.0);
  }
}

TEST(Fixed, MultiplicationMatchesDouble) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.next_double_in(-30, 30);
    const double b = rng.next_double_in(-30, 30);
    const auto r = Q15::from_double(a) * Q15::from_double(b);
    EXPECT_NEAR(r.to_double(), a * b, 0.01);
  }
}

TEST(Fixed, DivisionMatchesDouble) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.next_double_in(-100, 100);
    double b = rng.next_double_in(0.5, 50);
    if (rng.next_bool(0.5)) b = -b;
    const auto r = Q15::from_double(a) / Q15::from_double(b);
    EXPECT_NEAR(r.to_double(), a / b, 0.02);
  }
}

TEST(Fixed, SaturatesInsteadOfWrapping) {
  const auto big = Q15::from_double(65000.0);
  const auto sum = big + big;
  EXPECT_GT(sum.to_double(), 65000.0);  // saturated at max, did not wrap negative
  const auto neg = -big - big;
  EXPECT_LT(neg.to_double(), -65000.0);
}

TEST(Fixed, DivisionByZeroSaturates) {
  const auto r = Q15::from_int(5) / Q15::from_raw(0);
  EXPECT_GT(r.to_double(), 60000.0);
}

TEST(Fixed, ComparisonOperators) {
  EXPECT_LT(Q15::from_double(1.5), Q15::from_double(2.5));
  EXPECT_EQ(Q15::from_int(3), Q15::from_int(3));
}

// ----------------------------------------------------------------- mathutil

TEST(MathUtil, ClampU8) {
  EXPECT_EQ(clamp_u8(-5), 0);
  EXPECT_EQ(clamp_u8(0), 0);
  EXPECT_EQ(clamp_u8(128), 128);
  EXPECT_EQ(clamp_u8(255), 255);
  EXPECT_EQ(clamp_u8(900), 255);
}

TEST(MathUtil, RoundHalfAwayMatchesLroundOnTiesAndTheirNeighbours) {
  std::vector<float> xs = {0.0f, -0.0f};
  for (int k = -32768; k < 32768; ++k) {
    const float tie = static_cast<float>(k) + 0.5f;
    xs.insert(xs.end(), {tie, std::nextafter(tie, -INFINITY),
                         std::nextafter(tie, INFINITY)});
  }
  for (const float x : xs) {
    ASSERT_EQ(round_half_away(x), std::lround(x)) << "x = " << x;
  }
}

TEST(MathUtil, RoundHalfAwayMatchesLroundOnStridedSweep) {
  // Every 997th float bit pattern below 2^15 in magnitude, both signs:
  // subnormals, tiny values, and the full range the codecs round.
  const std::uint32_t limit = std::bit_cast<std::uint32_t>(32768.0f);
  for (std::uint32_t bits = 0; bits < limit; bits += 997) {
    const float x = std::bit_cast<float>(bits);
    ASSERT_EQ(round_half_away(x), std::lround(x)) << "x = " << x;
    ASSERT_EQ(round_half_away(-x), std::lround(-x)) << "x = " << -x;
  }
}

TEST(MathUtil, ClampS16) {
  EXPECT_EQ(clamp_s16(-40000), -32768);
  EXPECT_EQ(clamp_s16(40000), 32767);
  EXPECT_EQ(clamp_s16(123), 123);
}

TEST(MathUtil, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2((1ull << 63)), 63u);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(MathUtil, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 8), 16u);
}

TEST(MathUtil, MeanVariance) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean({xs, 4}), 2.5);
  EXPECT_DOUBLE_EQ(variance({xs, 4}), 1.25);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(MathUtil, ToDbFloorsTinyRatios) {
  EXPECT_NEAR(to_db(1.0), 0.0, 1e-9);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-9);
  EXPECT_GT(to_db(0.0), -130.0);  // floored, not -inf
}

// ------------------------------------------------------------------- status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_text(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s(StatusCode::kNotFound, "missing title");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_text(), "not_found: missing title");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(StatusCode::kCorruptData, "bad bits");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  EXPECT_EQ(r.value_or(-1), -1);
}

}  // namespace
}  // namespace mmsoc::common
