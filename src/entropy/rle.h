// The (run, level) symbol alphabet of quantized DCT coefficients.
//
// The video VLC stage (Fig. 1 "VARIABLE LENGTH ENCODE", video/vlc.h)
// walks a zig-zag-scanned 8x8 block as (zero-run, nonzero-level) events
// plus an end-of-block marker, and entropy-codes them with the canonical
// Huffman coder. This is the classic MPEG-style structure; this header
// fixes the mapping from an event to its Huffman symbol and back.
#pragma once

#include <cstdint>

namespace mmsoc::entropy {

/// One (run, level) event; run = number of zeros preceding `level`.
struct RunLevel {
  std::uint8_t run = 0;    // 0..63
  std::int16_t level = 0;  // nonzero except for the EOB marker
  [[nodiscard]] bool is_eob() const noexcept { return level == 0; }
  bool operator==(const RunLevel&) const = default;
};

/// Map a (run, level) event to a compact symbol for Huffman coding:
/// events with |level| <= 16 and run <= 31 map to one symbol (the sign is
/// carried as a separate raw bit by the caller); larger values use an
/// escape symbol followed by explicit run/level fields. Symbol space:
///   0        : EOB
///   1..512   : 1 + run*16 + (|level|-1)
///   993      : escape
inline constexpr int kRunLevelSymbols = 994;
inline constexpr int kEobSymbol = 0;
inline constexpr int kEscapeSymbol = 993;

[[nodiscard]] int run_level_to_symbol(const RunLevel& rl) noexcept;

/// For non-escape symbols, reconstruct the event (sign carried separately
/// as one bit by the caller). Returns {run, |level|}.
[[nodiscard]] RunLevel symbol_to_run_level(int symbol) noexcept;

}  // namespace mmsoc::entropy
