#include "dsp/crc32.h"

#include "dsp/dispatch.h"

namespace mmsoc::dsp {

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return kernels().crc32_update(0xFFFFFFFFu, data.data(), data.size()) ^
         0xFFFFFFFFu;
}

void Crc32::update(std::span<const std::uint8_t> data) noexcept {
  state_ = kernels().crc32_update(state_, data.data(), data.size());
}

}  // namespace mmsoc::dsp
