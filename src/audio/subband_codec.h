// The complete Fig. 2 audio encoder/decoder.
//
// Structure exactly as the paper's Figure 2: AUDIO SAMPLES -> MAPPER
// (32-band filterbank) -> QUANTIZER/CODER (scalefactors + bit-allocated
// uniform quantization) -> FRAME PACKER, with the PSYCHOACOUSTIC MODEL
// steering the quantizer and ANCILLARY DATA multiplexed into the frame.
// One frame codes a granule of 12 subband samples per band (384 PCM
// samples), in the style of MPEG-1 Layer I.
//
// Each Fig. 2 box is one stage function — map_granule (MAPPER),
// quantize_granule (QUANTIZER/CODER), pack_granule (FRAME PACKER), with
// granule_bit_pool sizing the quantizer's budget — so SubbandEncoder and
// the runtime's Fig. 2 graph run the same code and emit the same bytes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "audio/allocation.h"
#include "audio/filterbank.h"
#include "audio/psycho.h"
#include "common/status.h"

namespace mmsoc::audio {

inline constexpr int kBlocksPerGranule = 12;
inline constexpr int kGranuleSamples = kSubbands * kBlocksPerGranule;  // 384

/// Per-stage operation counts for one granule (Fig. 2 boxes).
struct AudioStageOps {
  std::uint64_t mapper_macs = 0;    ///< filterbank multiply-accumulates
  std::uint64_t psycho_ops = 0;     ///< FFT butterflies + spreading ops
  std::uint64_t quant_ops = 0;      ///< quantized subband samples
  std::uint64_t packer_bits = 0;    ///< bits written by the frame packer
  AudioStageOps& operator+=(const AudioStageOps& o) noexcept;
};

struct AudioEncoderConfig {
  double sample_rate = 44100.0;
  double bitrate_bps = 192000.0;
  /// Disable the psychoacoustic model (allocation by signal power only).
  /// The E-AUD experiment toggles this to quantify the masking gain.
  bool use_psycho = true;
};

/// Everything the frame packer writes for one granule.
struct QuantizedGranule {
  Allocation allocation{};
  std::array<std::uint8_t, kSubbands> scalefactor{};  ///< index per band
  std::array<std::int16_t, kGranuleSamples> levels{}; ///< signed, time-major
  double worst_mnr_db = 0.0;  ///< min mask-to-noise ratio after allocation
};

/// Bits per granule the quantizer may spend after the side information.
/// Throws std::invalid_argument unless both rates are finite and > 0 and
/// a granule's bit budget fits in an int.
[[nodiscard]] int granule_bit_pool(double sample_rate, double bitrate_bps);

/// MAPPER: one granule through `analyzer`'s streaming 32-band transform;
/// the subband samples come out time-major (block by block).
[[nodiscard]] std::array<double, kGranuleSamples> map_granule(
    SubbandAnalyzer& analyzer,
    std::span<const double, kGranuleSamples> samples) noexcept;

/// QUANTIZER/CODER: a scalefactor per band from its peak, a greedy
/// allocation of `bit_pool` against `smr_db` (leftover bits spent on SNR
/// by the peaks' signal levels), and the signed level of every sample.
[[nodiscard]] QuantizedGranule quantize_granule(
    std::span<const double, kGranuleSamples> bands,
    std::span<const double, kSubbands> smr_db, int bit_pool) noexcept;

/// FRAME PACKER: sync word, side info, time-major levels, then the
/// ancillary data (Fig. 2's second input) behind a 16-bit length.
[[nodiscard]] std::vector<std::uint8_t> pack_granule(
    const QuantizedGranule& granule, std::span<const std::uint8_t> ancillary);

struct EncodedGranule {
  std::vector<std::uint8_t> bytes;
  AudioStageOps ops;
  double worst_mnr_db = 0.0;  ///< min mask-to-noise ratio after allocation
  Allocation allocation{};
};

class SubbandEncoder {
 public:
  /// Throws std::invalid_argument for rates granule_bit_pool rejects.
  explicit SubbandEncoder(const AudioEncoderConfig& config);

  /// Encode one granule of PCM in [-1, 1] through the stage functions in
  /// Fig. 2 order; `ancillary` rides along in the frame (Fig. 2's
  /// ancillary-data input), e.g. DRM rights markers.
  EncodedGranule encode(std::span<const double, kGranuleSamples> samples,
                        std::span<const std::uint8_t> ancillary = {});

  [[nodiscard]] const AudioEncoderConfig& config() const noexcept {
    return config_;
  }

 private:
  AudioEncoderConfig config_;
  SubbandAnalyzer analyzer_;
  PsychoModel psycho_;
  int bit_pool_;
};

struct DecodedGranule {
  std::array<double, kGranuleSamples> samples{};
  std::vector<std::uint8_t> ancillary;
};

class SubbandDecoder {
 public:
  SubbandDecoder() = default;

  common::Result<DecodedGranule> decode(std::span<const std::uint8_t> bytes);

 private:
  SubbandSynthesizer synthesizer_;
};

/// The shared scalefactor table (63 entries, ISO-style 2 dB ladder);
/// out-of-range indices clamp.
[[nodiscard]] double scalefactor_value(int index) noexcept;

/// Smallest scalefactor index whose value covers `magnitude`.
[[nodiscard]] int scalefactor_index_for(double magnitude) noexcept;

}  // namespace mmsoc::audio
