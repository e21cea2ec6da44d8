#include "common/bitstream.h"

#include <bit>
#include <limits>
#include <stdexcept>

namespace mmsoc::common {

void BitWriter::spill(std::uint64_t value, unsigned count) {
  if (count > 64) count = 64;
  const unsigned low = acc_bits_ + count - 64;  // field bits left pending
  // `acc_ << 64` would be UB; with an empty accumulator the field is the
  // whole word. Shifting left also drops any stale bits above acc_bits_.
  const std::uint64_t word =
      (acc_bits_ == 0 ? 0 : acc_ << (64 - acc_bits_)) | (value >> low);
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(word >> (56 - 8 * i));
  }
  buf_.insert(buf_.end(), bytes, bytes + 8);
  acc_ = value;  // its low `low` bits; the bits above are never read
  acc_bits_ = low;
}

void BitWriter::put_ue(std::uint32_t value) {
  // code = value+1 written as N-1 zeros followed by the N bits of value+1,
  // i.e. value+1 in a field of 2N-1 bits (two fields when that exceeds 64).
  const std::uint64_t v = std::uint64_t{value} + 1;
  const unsigned n = std::bit_width(v);
  if (n <= 32) {
    put_bits(v, 2 * n - 1);
  } else {
    put_bits(0, n - 1);
    put_bits(v, n);
  }
}

void BitWriter::put_se(std::int32_t value) {
  // INT32_MIN would map to 2^32, which wraps to the code of 0.
  if (value == std::numeric_limits<std::int32_t>::min()) {
    throw std::invalid_argument("put_se: INT32_MIN has no se(v) code");
  }
  // Standard signed Exp-Golomb mapping: 0,1,-1,2,-2,... -> 0,1,2,3,4,...
  const std::uint32_t mapped =
      value > 0 ? static_cast<std::uint32_t>(value) * 2 - 1
                : static_cast<std::uint32_t>(-static_cast<std::int64_t>(value)) * 2;
  put_ue(mapped);
}

void BitWriter::align_to_byte() {
  // The buffer holds whole words, so the accumulator carries the offset.
  const unsigned rem = acc_bits_ % 8;
  if (rem != 0) put_bits(0, 8 - rem);
}

std::vector<std::uint8_t> BitWriter::take() {
  align_to_byte();
  for (unsigned b = acc_bits_; b >= 8; b -= 8) {
    buf_.push_back(static_cast<std::uint8_t>(acc_ >> (b - 8)));
  }
  std::vector<std::uint8_t> out;
  out.swap(buf_);
  acc_ = 0;
  acc_bits_ = 0;
  return out;
}

std::uint64_t BitReader::get_bits(unsigned count) {
  if (count == 0) return 0;
  if (count > 64) count = 64;
  if (pos_ + count > data_.size() * 8) {
    ok_ = false;
    pos_ = data_.size() * 8;
    return 0;
  }
  std::uint64_t value = 0;
  unsigned remaining = count;
  while (remaining > 0) {
    const std::size_t byte_idx = pos_ >> 3;
    const unsigned bit_off = static_cast<unsigned>(pos_ & 7);
    const unsigned avail = 8 - bit_off;
    const unsigned take = remaining < avail ? remaining : avail;
    const unsigned shift = avail - take;
    const std::uint8_t chunk =
        static_cast<std::uint8_t>((data_[byte_idx] >> shift) &
                                  ((1u << take) - 1u));
    value = (value << take) | chunk;
    pos_ += take;
    remaining -= take;
  }
  return value;
}

std::uint32_t BitReader::peek_bits(unsigned count) const {
  if (count == 0) return 0;
  if (count > 32) count = 32;
  std::uint32_t value = 0;
  std::size_t p = pos_;
  const std::size_t total = data_.size() * 8;
  for (unsigned i = 0; i < count; ++i, ++p) {
    unsigned bit = 0;
    if (p < total) {
      bit = (data_[p >> 3] >> (7 - (p & 7))) & 1u;
    }
    value = (value << 1) | bit;
  }
  return value;
}

void BitReader::skip_bits(std::size_t count) {
  if (pos_ + count > data_.size() * 8) {
    ok_ = false;
    pos_ = data_.size() * 8;
    return;
  }
  pos_ += count;
}

std::uint32_t BitReader::get_ue() {
  unsigned zeros = 0;
  while (ok_ && get_bits(1) == 0) {
    if (++zeros > 32) {  // malformed stream guard
      ok_ = false;
      return 0;
    }
    if (bits_remaining() == 0) {
      ok_ = false;
      return 0;
    }
  }
  if (!ok_) return 0;
  const std::uint64_t suffix = get_bits(zeros);
  const std::uint64_t v = (std::uint64_t{1} << zeros) | suffix;
  return static_cast<std::uint32_t>(v - 1);
}

std::int32_t BitReader::get_se() {
  const std::uint32_t mapped = get_ue();
  if (mapped == 0) return 0;
  const std::uint32_t magnitude = (mapped + 1) / 2;
  return (mapped & 1u) ? static_cast<std::int32_t>(magnitude)
                       : -static_cast<std::int32_t>(magnitude);
}

void BitReader::align_to_byte() {
  const unsigned rem = static_cast<unsigned>(pos_ & 7);
  if (rem != 0) skip_bits(8 - rem);
}

}  // namespace mmsoc::common
