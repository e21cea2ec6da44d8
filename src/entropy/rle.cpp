#include "entropy/rle.h"

#include <cstdlib>

namespace mmsoc::entropy {

int run_level_to_symbol(const RunLevel& rl) noexcept {
  if (rl.is_eob()) return kEobSymbol;
  const int mag = std::abs(rl.level);
  if (rl.run <= 31 && mag <= 16) {
    // 1 + run * 16 + (mag - 1) in [1, 512]
    return 1 + rl.run * 16 + (mag - 1);
  }
  return kEscapeSymbol;
}

RunLevel symbol_to_run_level(int symbol) noexcept {
  if (symbol <= 0 || symbol >= kEscapeSymbol) return RunLevel{0, 0};
  const int v = symbol - 1;
  RunLevel rl;
  rl.run = static_cast<std::uint8_t>(v / 16);
  rl.level = static_cast<std::int16_t>((v % 16) + 1);
  return rl;
}

}  // namespace mmsoc::entropy
