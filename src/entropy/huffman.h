// Canonical Huffman coding.
//
// Section 3: "Lossless encoding, particularly Huffman-style encoding, is
// used to remove entropy from the final data stream sent to the decoder."
// This module builds length-limited canonical codes from symbol frequencies
// (package-merge), serializes only the code lengths, and provides a fast
// table-driven decoder. The video VLC stage (Fig. 1) builds its default
// code from fixed lengths; the audio frame packer (Fig. 2) writes
// fixed-width fields and does not use this module.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitstream.h"
#include "common/status.h"

namespace mmsoc::entropy {

/// A canonical Huffman code for `symbol_count` symbols.
class HuffmanCode {
 public:
  /// Build a length-limited (<= max_bits) canonical code from frequencies.
  /// Symbols with zero frequency get no code. At least one symbol must
  /// have nonzero frequency.
  static common::Result<HuffmanCode> from_frequencies(
      std::span<const std::uint64_t> freqs, unsigned max_bits = 16);

  /// Rebuild a code from its canonical code lengths (0 = absent symbol).
  static common::Result<HuffmanCode> from_lengths(
      std::span<const std::uint8_t> lengths);

  /// Code length in bits for `symbol` (0 if the symbol has no code).
  [[nodiscard]] unsigned length(std::size_t symbol) const noexcept {
    return symbol < lengths_.size() ? lengths_[symbol] : 0;
  }

  /// Codeword bits for `symbol` (MSB-first, `length(symbol)` bits).
  [[nodiscard]] std::uint32_t codeword(std::size_t symbol) const noexcept {
    return symbol < codes_.size() ? codes_[symbol] : 0;
  }

  [[nodiscard]] std::size_t symbol_count() const noexcept {
    return lengths_.size();
  }
  [[nodiscard]] std::span<const std::uint8_t> lengths() const noexcept {
    return lengths_;
  }

  /// Append the codeword for `symbol` to `out`. Returns false if the
  /// symbol has no code.
  bool encode(std::size_t symbol, common::BitWriter& out) const;

  /// Decode one symbol from `in`. Returns -1 on malformed input.
  [[nodiscard]] int decode(common::BitReader& in) const;

  /// Expected code length (bits/symbol) under the given frequencies —
  /// used by benches to compare against the entropy bound.
  [[nodiscard]] double expected_length(
      std::span<const std::uint64_t> freqs) const noexcept;

 private:
  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> codes_;

  // Table-driven decode acceleration: first_code_/first_symbol_ per length
  // plus symbols sorted in canonical order.
  std::vector<std::uint32_t> first_code_;   // index = length
  std::vector<std::uint32_t> first_index_;  // index = length
  std::vector<std::uint32_t> sorted_symbols_;
  unsigned max_len_ = 0;

  common::Status assign_canonical();
};

/// Shannon entropy in bits/symbol of a frequency table (0 log 0 := 0).
[[nodiscard]] double entropy_bits(std::span<const std::uint64_t> freqs) noexcept;

/// Serialize code lengths compactly (RLE of zero runs), for stream headers.
void write_code_lengths(const HuffmanCode& code, common::BitWriter& out);

/// Parse code lengths written by write_code_lengths.
common::Result<HuffmanCode> read_code_lengths(common::BitReader& in);

}  // namespace mmsoc::entropy
