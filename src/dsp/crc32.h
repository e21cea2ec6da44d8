// CRC-32 (IEEE 802.3 polynomial, reflected) used for filesystem metadata
// integrity, network frame checks and the pipelines' output digests. The
// update runs through the kernel dispatch (dsp::kernels().crc32_update):
// slice-by-8 tables, or a PCLMULQDQ fold at the AVX2 level. Every level
// returns the same value.
#pragma once

#include <cstdint>
#include <span>

namespace mmsoc::dsp {

/// One-shot CRC-32 of a byte span (init 0xFFFFFFFF, final xor 0xFFFFFFFF).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Incremental CRC-32 for streaming use (e.g. network segments).
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }
  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace mmsoc::dsp
