// Bit-granular serialization used by every codec in the library.
//
// The paper's codecs (Fig. 1 video encoder, Fig. 2 audio encoder) both end
// in a variable-length coded bitstream; BitWriter/BitReader are the shared
// substrate. Bits are packed MSB-first within each byte, which matches the
// convention of MPEG-style streams and makes hex dumps human-checkable.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace mmsoc::common {

/// Accumulates bits MSB-first into a growable byte buffer. Bits gather in
/// a 64-bit accumulator and reach the buffer one whole word at a time, so
/// the common short field costs a shift and an OR.
class BitWriter {
 public:
  BitWriter() = default;

  /// Write into `buffer`'s storage: the buffer is cleared and its capacity
  /// kept, so a writer built on a recycled buffer allocates only to grow
  /// it. take() hands the buffer back.
  explicit BitWriter(std::vector<std::uint8_t>&& buffer) noexcept
      : buf_(std::move(buffer)) {
    buf_.clear();
  }

  /// Append the low `count` bits of `value`, MSB of the field first.
  /// `count` must be in [0, 64].
  void put_bits(std::uint64_t value, unsigned count) {
    if (count < 64) value &= (std::uint64_t{1} << count) - 1;
    if (acc_bits_ + count < 64) {
      acc_ = (acc_ << count) | value;  // count < 64 here
      acc_bits_ += count;
      return;
    }
    spill(value, count);
  }

  /// Append a single bit (0 or 1).
  void put_bit(unsigned bit) { put_bits(bit & 1u, 1); }

  /// Append an unsigned Exp-Golomb code (order 0), used for side data.
  void put_ue(std::uint32_t value);

  /// Append a signed Exp-Golomb code (order 0). Throws
  /// std::invalid_argument for INT32_MIN, which get_se cannot return.
  void put_se(std::int32_t value);

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte();

  /// Total bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return buf_.size() * 8 + acc_bits_;
  }

  /// Finish (byte-aligns) and return the underlying buffer.
  [[nodiscard]] std::vector<std::uint8_t> take();

 private:
  std::vector<std::uint8_t> buf_;  // whole 64-bit words, big-endian
  std::uint64_t acc_ = 0;   // pending bits in the low acc_bits_ positions
  unsigned acc_bits_ = 0;   // in [0, 63]

  // Completes the accumulator's word with the high bits of the field,
  // appends it and keeps the field's low bits pending.
  void spill(std::uint64_t value, unsigned count);
};

/// Reads bits MSB-first from a byte buffer. Reading past the end is
/// reported via `ok()` turning false; subsequent reads return zero, so
/// decoder loops can check status once per symbol block rather than per bit.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Read `count` bits (0..64), MSB-first. Returns 0 and clears ok() on
  /// underrun.
  std::uint64_t get_bits(unsigned count);

  /// Read a single bit.
  unsigned get_bit() { return static_cast<unsigned>(get_bits(1)); }

  /// Peek at the next `count` bits (0..32) without consuming them.
  /// Bits past the end read as zero (stream is conceptually zero-padded),
  /// which lets table-driven Huffman decoders peek a full window near EOF.
  [[nodiscard]] std::uint32_t peek_bits(unsigned count) const;

  /// Skip `count` bits.
  void skip_bits(std::size_t count);

  /// Read an unsigned Exp-Golomb code (order 0).
  std::uint32_t get_ue();

  /// Read a signed Exp-Golomb code (order 0).
  std::int32_t get_se();

  /// Advance to the next byte boundary.
  void align_to_byte();

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t bit_position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    const std::size_t total = data_.size() * 8;
    return pos_ >= total ? 0 : total - pos_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;  // absolute bit position
  bool ok_ = true;
};

}  // namespace mmsoc::common
