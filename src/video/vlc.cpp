#include "video/vlc.h"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "entropy/rle.h"
#include "entropy/zigzag.h"

namespace mmsoc::video {

namespace {

constexpr int kMaxTableRun = 31;
constexpr int kMaxTableLevel = 16;

// The default code's lengths, fixed as data the way MPEG fixes its VLC
// tables. They are the length-limited (16-bit) canonical Huffman code of
// a parametric model of quantized-DCT statistics: EOB weighted 1.2,
// (run, |level|) weighted 0.62^run * 0.45^(|level| - 1), escape 1e-4.
// Vlc.DefaultCodeIsPackageMergeOfItsModel rebuilds them from that model.
constexpr unsigned kEobBits = 2;
constexpr unsigned kEscapeBits = 16;
constexpr std::uint8_t kEventBits[kMaxTableRun + 1][kMaxTableLevel] = {
    { 3,  4,  5,  6,  7,  8,  9, 11, 12, 13, 14, 15, 16, 16, 16, 16},  // run 0
    { 3,  5,  6,  7,  8,  9, 10, 11, 12, 14, 15, 16, 16, 16, 16, 16},  // run 1
    { 4,  5,  6,  7,  9, 10, 11, 12, 13, 14, 16, 16, 16, 16, 16, 16},  // run 2
    { 5,  6,  7,  8,  9, 10, 12, 13, 14, 15, 16, 16, 16, 16, 16, 16},  // run 3
    { 5,  7,  8,  9, 10, 11, 12, 13, 15, 16, 16, 16, 16, 16, 16, 16},  // run 4
    { 6,  7,  8,  9, 11, 12, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16},  // run 5
    { 7,  8,  9, 10, 11, 12, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16},  // run 6
    { 7,  8, 10, 11, 12, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16},  // run 7
    { 8,  9, 10, 11, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 8
    { 9, 10, 11, 12, 13, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 9
    { 9, 11, 12, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 10
    {10, 11, 12, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 11
    {11, 12, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 12
    {11, 13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 13
    {12, 13, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 14
    {13, 14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 15
    {14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 16
    {14, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 17
    {15, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 18
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 19
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 20
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 21
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 22
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 23
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 24
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 25
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 26
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 27
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 28
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 29
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 30
    {16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16},  // run 31
};

}  // namespace

const entropy::HuffmanCode& default_vlc_table() {
  static const entropy::HuffmanCode table = [] {
    std::array<std::uint8_t, entropy::kRunLevelSymbols> lengths{};
    lengths[entropy::kEobSymbol] = kEobBits;
    for (int run = 0; run <= kMaxTableRun; ++run) {
      for (int mag = 1; mag <= kMaxTableLevel; ++mag) {
        lengths[static_cast<std::size_t>(entropy::run_level_to_symbol(
            {static_cast<std::uint8_t>(run), static_cast<std::int16_t>(mag)}))] =
            kEventBits[run][mag - 1];
      }
    }
    lengths[entropy::kEscapeSymbol] = kEscapeBits;
    auto built = entropy::HuffmanCode::from_lengths(lengths);
    // The lengths above form a complete prefix code; a failure here is a
    // programming error, so fall back to an empty table rather than throw.
    return built.is_ok() ? std::move(built).value() : entropy::HuffmanCode{};
  }();
  return table;
}

namespace {

// One (run, |level|) Huffman code with room for its sign: the codeword
// shifted left by one, and its length plus one.
struct SignedCode {
  std::uint32_t code = 0;
  std::uint32_t bits = 0;
};

// default_vlc_table() flattened once: every (run, |level|) that has its
// own symbol, plus the EOB and escape codewords. A symbol without a code
// emits nothing, as HuffmanCode::encode does, and keeps its sign bit.
struct VlcCodes {
  std::array<SignedCode, (kMaxTableRun + 1) * kMaxTableLevel> events{};
  std::uint32_t eob = 0, eob_bits = 0;
  std::uint32_t escape = 0, escape_bits = 0;
};

const VlcCodes& vlc_codes() {
  static const VlcCodes codes = [] {
    const auto& table = default_vlc_table();
    VlcCodes c;
    for (int run = 0; run <= kMaxTableRun; ++run) {
      for (int mag = 1; mag <= kMaxTableLevel; ++mag) {
        const auto symbol = static_cast<std::size_t>(entropy::run_level_to_symbol(
            {static_cast<std::uint8_t>(run), static_cast<std::int16_t>(mag)}));
        c.events[run * kMaxTableLevel + mag - 1] = {
            table.codeword(symbol) << 1, table.length(symbol) + 1};
      }
    }
    c.eob = table.codeword(entropy::kEobSymbol);
    c.eob_bits = table.length(entropy::kEobSymbol);
    c.escape = table.codeword(entropy::kEscapeSymbol);
    c.escape_bits = table.length(entropy::kEscapeSymbol);
    return c;
  }();
  return codes;
}

// Bit s set iff the AC level at zig-zag position s is nonzero (bit 0, the
// DC, is always clear). An all-zero 4-level word is skipped; any other
// gives its nonzero lanes as a nibble of the row-major mask. The few set
// bits then move to their scan positions.
std::uint64_t nonzero_scan_mask(std::span<const std::int16_t, 64> levels) {
  constexpr std::uint64_t kLow15 = 0x7FFF7FFF7FFF7FFFull;
  // Lane i's flag (bit 16i) lands on bit 48 + i; no two partial products
  // share a bit, so the multiply is a carry-free gather.
  constexpr std::uint64_t kGather = (1ull << 48) | (1ull << 33) | (1ull << 18) |
                                    (1ull << 3);
  std::uint64_t row_major = 0;
  for (int w = 0; w < 16; ++w) {
    std::uint64_t lanes;
    std::memcpy(&lanes, &levels[4 * w], sizeof lanes);
    if (lanes == 0) continue;
    // Top bit of each 16-bit lane: set iff the lane is nonzero.
    const std::uint64_t nonzero =
        (((lanes & kLow15) + kLow15) | lanes) & ~kLow15;
    std::uint64_t nibble = ((nonzero >> 15) * kGather >> 48) & 0xF;
    if constexpr (std::endian::native == std::endian::big) {
      // Level 4w sits in the top lane: reverse the nibble.
      nibble = ((nibble & 1) << 3) | ((nibble & 2) << 1) | ((nibble >> 1) & 2) |
               (nibble >> 3);
    }
    row_major |= nibble << (4 * w);
  }
  row_major &= ~std::uint64_t{1};  // the DC is coded on its own
  std::uint64_t scan = 0;
  for (; row_major != 0; row_major &= row_major - 1) {
    scan |= std::uint64_t{1}
            << entropy::kZigZagInv8x8[std::countr_zero(row_major)];
  }
  return scan;
}

}  // namespace

BlockCodeStats encode_block(std::span<const std::int16_t, 64> levels,
                            bool code_dc, std::int16_t& dc_pred,
                            common::BitWriter& out) {
  const VlcCodes& codes = vlc_codes();
  const std::size_t start_bits = out.bit_count();

  if (code_dc) {
    out.put_se(levels[0] - dc_pred);
    dc_pred = levels[0];
  } else {
    out.put_se(levels[0]);
  }

  // (run, level) events in zig-zag order, then EOB.
  std::uint32_t symbols = 2;  // the DC and the EOB
  int last = 0;               // scan position of the previous level
  for (std::uint64_t scan = nonzero_scan_mask(levels); scan != 0;
       scan &= scan - 1, ++symbols) {
    const int pos = std::countr_zero(scan);
    const int run = pos - last - 1;
    last = pos;
    const std::int16_t level = levels[entropy::kZigZag8x8[pos]];
    const int mag = std::abs(level);
    if (run <= kMaxTableRun && mag <= kMaxTableLevel) {
      const SignedCode& c = codes.events[run * kMaxTableLevel + mag - 1];
      out.put_bits(c.code | (level < 0 ? 1u : 0u), c.bits);
    } else {
      out.put_bits(codes.escape, codes.escape_bits);
      out.put_bits(static_cast<std::uint64_t>(run), 6);
      out.put_se(level);
    }
  }
  out.put_bits(codes.eob, codes.eob_bits);
  return {symbols, static_cast<std::uint32_t>(out.bit_count() - start_bits)};
}

bool decode_block(common::BitReader& in, bool code_dc, std::int16_t& dc_pred,
                  std::span<std::int16_t, 64> levels) {
  const auto& table = default_vlc_table();
  for (auto& v : levels) v = 0;

  const std::int32_t dc_diff = in.get_se();
  if (!in.ok()) return false;
  if (code_dc) {
    const std::int32_t dc = dc_pred + dc_diff;
    if (dc < -32768 || dc > 32767) return false;
    levels[0] = static_cast<std::int16_t>(dc);
    dc_pred = levels[0];
  } else {
    if (dc_diff < -32768 || dc_diff > 32767) return false;
    levels[0] = static_cast<std::int16_t>(dc_diff);
  }

  // Each (run, level) lands at its zig-zag position as it is decoded.
  int scan = 1;  // next scan position
  for (int guard = 0; guard < 64; ++guard) {
    const int symbol = table.decode(in);
    if (symbol < 0) return false;
    if (symbol == entropy::kEobSymbol) return true;
    int run = 0;
    std::int32_t level = 0;
    if (symbol == entropy::kEscapeSymbol) {
      run = static_cast<int>(in.get_bits(6));
      level = in.get_se();
      if (!in.ok() || level == 0 || level < -32768 || level > 32767)
        return false;
    } else {
      const auto rl = entropy::symbol_to_run_level(symbol);
      run = rl.run;
      level = in.get_bit() ? -rl.level : rl.level;
      if (!in.ok()) return false;
    }
    scan += run;
    if (scan >= 64) return false;  // run past the last position
    levels[entropy::kZigZag8x8[scan]] = static_cast<std::int16_t>(level);
    ++scan;
  }
  return false;  // more than 63 AC events: corrupt
}

}  // namespace mmsoc::video
