// Block-level variable-length coding — Fig. 1 "VARIABLE LENGTH ENCODE".
//
// Quantized 8x8 blocks are coded as a differential DC value (Exp-Golomb)
// followed by Huffman-coded (run, level) events with separate sign bits
// and an escape path for rare large values. Encoder and decoder share a
// default code whose lengths are fixed as data, so no table needs to be
// transmitted (standard practice: MPEG's tables are likewise fixed by the
// standard); the lengths are the Huffman code of a parametric model of
// typical coefficient statistics.
//
// The encoder finds a block's nonzero AC levels in one pass (a 64-bit
// zig-zag mask walked lowest bit first) and emits each common event as one
// precomputed codeword-plus-sign field; the decoder places each event at
// its zig-zag position as it reads it. Neither builds an event list, so
// coding a block allocates nothing.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitstream.h"
#include "entropy/huffman.h"

namespace mmsoc::video {

/// The shared default (run, level) Huffman code.
[[nodiscard]] const entropy::HuffmanCode& default_vlc_table();

/// Statistics of one coded block.
struct BlockCodeStats {
  std::uint32_t symbols = 0;  ///< Huffman symbols emitted (incl. EOB)
  std::uint32_t bits = 0;     ///< total bits produced for the block
};

/// Encode a quantized block. `code_dc` selects intra-style differential DC
/// coding; `dc_pred` is the running DC predictor (updated in place).
BlockCodeStats encode_block(std::span<const std::int16_t, 64> levels,
                            bool code_dc, std::int16_t& dc_pred,
                            common::BitWriter& out);

/// Decode one block into `levels`. Returns false on malformed input.
bool decode_block(common::BitReader& in, bool code_dc, std::int16_t& dc_pred,
                  std::span<std::int16_t, 64> levels);

}  // namespace mmsoc::video
