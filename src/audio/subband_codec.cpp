#include "audio/subband_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/bitstream.h"

namespace mmsoc::audio {
namespace {

using common::BitReader;
using common::BitWriter;
using common::Result;
using common::StatusCode;

constexpr std::uint16_t kSyncWord = 0xACD;  // 12-bit granule sync
constexpr int kScalefactors = 63;

// Quantize a normalized value in [-1, 1] to a signed `bits`-bit level.
std::int32_t quantize_sample(double v, int bits) noexcept {
  const std::int32_t maxlevel = (1 << (bits - 1)) - 1;
  const auto q = static_cast<std::int32_t>(std::lround(v * maxlevel));
  return std::clamp(q, -maxlevel, maxlevel);
}

// Peak magnitude per band over the granule's blocks.
std::array<double, kSubbands> band_peaks(
    std::span<const double, kGranuleSamples> bands) noexcept {
  std::array<double, kSubbands> peak{};
  for (std::size_t i = 0; i < kGranuleSamples; ++i) {
    peak[i % kSubbands] = std::max(peak[i % kSubbands], std::abs(bands[i]));
  }
  return peak;
}

double dequantize_sample(std::int32_t q, int bits) noexcept {
  const std::int32_t maxlevel = (1 << (bits - 1)) - 1;
  return maxlevel > 0 ? static_cast<double>(q) / maxlevel : 0.0;
}

// 32.0 * 2^(-index/3): ~2 dB steps downward. The 32.0 ceiling leaves
// headroom for filterbank gain: a full-scale input can produce subband
// peaks of ~8 in a single band.
const std::array<double, kScalefactors>& scalefactor_table() {
  static const auto table = [] {
    std::array<double, kScalefactors> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = 32.0 * std::pow(2.0, -static_cast<double>(i) / 3.0);
    }
    return t;
  }();
  return table;
}

}  // namespace

AudioStageOps& AudioStageOps::operator+=(const AudioStageOps& o) noexcept {
  mapper_macs += o.mapper_macs;
  psycho_ops += o.psycho_ops;
  quant_ops += o.quant_ops;
  packer_bits += o.packer_bits;
  return *this;
}

double scalefactor_value(int index) noexcept {
  return scalefactor_table()[static_cast<std::size_t>(
      std::clamp(index, 0, kScalefactors - 1))];
}

int scalefactor_index_for(double magnitude) noexcept {
  // Largest (smallest-value) index still covering the magnitude.
  const auto& table = scalefactor_table();
  for (int i = kScalefactors - 1; i >= 0; --i) {
    if (table[static_cast<std::size_t>(i)] >= magnitude) return i;
  }
  return 0;
}

int granule_bit_pool(double sample_rate, double bitrate_bps) {
  const double total =
      bitrate_bps * (static_cast<double>(kGranuleSamples) / sample_rate);
  if (!(std::isfinite(sample_rate) && sample_rate > 0.0 && bitrate_bps > 0.0 &&
        total < static_cast<double>(std::numeric_limits<int>::max()) + 1.0)) {
    throw std::invalid_argument(
        "audio encoder: rates must be finite and > 0, with a granule's bits "
        "fitting in an int");
  }
  // Minus the fixed side information (sync 12 + allocation 4*32 +
  // ancillary length 16) and the worst-case scalefactor cost (6 per band).
  return std::max(0, static_cast<int>(total) -
                         (12 + 4 * kSubbands + 16 + 6 * kSubbands));
}

std::array<double, kGranuleSamples> map_granule(
    SubbandAnalyzer& analyzer,
    std::span<const double, kGranuleSamples> samples) noexcept {
  std::array<double, kGranuleSamples> bands{};
  for (int t = 0; t < kBlocksPerGranule; ++t) {
    const auto block = analyzer.analyze(std::span<const double, kSubbands>(
        samples.data() + t * kSubbands, kSubbands));
    std::copy(block.begin(), block.end(), bands.begin() + t * kSubbands);
  }
  return bands;
}

QuantizedGranule quantize_granule(std::span<const double, kGranuleSamples> bands,
                                  std::span<const double, kSubbands> smr_db,
                                  int bit_pool) noexcept {
  QuantizedGranule out;
  const auto peak = band_peaks(bands);
  std::array<double, kSubbands> smr{};
  std::array<double, kSubbands> signal_db{};
  std::copy(smr_db.begin(), smr_db.end(), smr.begin());
  for (std::size_t k = 0; k < kSubbands; ++k) {
    out.scalefactor[k] =
        static_cast<std::uint8_t>(scalefactor_index_for(peak[k]));
    signal_db[k] = peak[k] > 0 ? 20.0 * std::log10(peak[k]) : -120.0;
  }
  out.allocation = allocate_bits(smr, bit_pool, kBlocksPerGranule, signal_db);
  out.worst_mnr_db = worst_mnr_db(smr, out.allocation);

  for (std::size_t k = 0; k < kSubbands; ++k) {
    const int bits = out.allocation[k];
    if (bits == 0) continue;
    const double scale = scalefactor_value(out.scalefactor[k]);
    for (std::size_t i = k; i < kGranuleSamples; i += kSubbands) {
      out.levels[i] = static_cast<std::int16_t>(
          quantize_sample(std::clamp(bands[i] / scale, -1.0, 1.0), bits));
    }
  }
  return out;
}

std::vector<std::uint8_t> pack_granule(const QuantizedGranule& granule,
                                       std::span<const std::uint8_t> ancillary) {
  BitWriter w;
  w.put_bits(kSyncWord, 12);
  for (const auto bits : granule.allocation) w.put_bits(bits, 4);
  for (std::size_t k = 0; k < kSubbands; ++k) {
    if (granule.allocation[k] > 0) w.put_bits(granule.scalefactor[k], 6);
  }
  for (std::size_t i = 0; i < kGranuleSamples; ++i) {
    const unsigned bits = granule.allocation[i % kSubbands];
    if (bits == 0) continue;
    w.put_bits(static_cast<std::uint64_t>(granule.levels[i]) & ((1u << bits) - 1),
               bits);
  }
  w.put_bits(ancillary.size(), 16);
  for (const auto b : ancillary) w.put_bits(b, 8);
  return w.take();
}

SubbandEncoder::SubbandEncoder(const AudioEncoderConfig& config)
    : config_(config),
      psycho_(config.sample_rate),
      bit_pool_(granule_bit_pool(config.sample_rate, config.bitrate_bps)) {}

EncodedGranule SubbandEncoder::encode(
    std::span<const double, kGranuleSamples> samples,
    std::span<const std::uint8_t> ancillary) {
  EncodedGranule out;
  const auto bands = map_granule(analyzer_, samples);
  out.ops.mapper_macs = static_cast<std::uint64_t>(kBlocksPerGranule) *
                        kSubbands * (2 * kSubbands);

  std::array<double, kSubbands> smr{};
  if (config_.use_psycho) {
    smr = psycho_.analyze(samples).smr_db;
    out.ops.psycho_ops = 1024 * 10 + kSubbands * kSubbands;
  } else {
    // No masking knowledge: demand headroom proportional to signal level
    // above an arbitrary -90 dB floor, so allocation follows power alone.
    const auto peak = band_peaks(bands);
    for (std::size_t k = 0; k < kSubbands; ++k) {
      smr[k] = peak[k] > 0 ? std::max(0.0, 20.0 * std::log10(peak[k]) + 90.0)
                           : 0.0;
    }
  }

  const QuantizedGranule q = quantize_granule(bands, smr, bit_pool_);
  out.allocation = q.allocation;
  out.worst_mnr_db = q.worst_mnr_db;
  for (const auto bits : q.allocation) {
    if (bits > 0) out.ops.quant_ops += kBlocksPerGranule;
  }
  out.bytes = pack_granule(q, ancillary);
  out.ops.packer_bits = out.bytes.size() * 8;  // includes alignment padding
  return out;
}

Result<DecodedGranule> SubbandDecoder::decode(
    std::span<const std::uint8_t> bytes) {
  BitReader r(bytes);
  if (r.get_bits(12) != kSyncWord || !r.ok()) {
    return Result<DecodedGranule>(StatusCode::kCorruptData, "bad sync word");
  }
  Allocation alloc{};
  for (int k = 0; k < kSubbands; ++k) {
    alloc[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(r.get_bits(4));
  }
  std::array<int, kSubbands> sf_idx{};
  for (int k = 0; k < kSubbands; ++k) {
    if (alloc[static_cast<std::size_t>(k)] > 0) {
      sf_idx[static_cast<std::size_t>(k)] = static_cast<int>(r.get_bits(6));
    }
  }
  if (!r.ok()) {
    return Result<DecodedGranule>(StatusCode::kCorruptData,
                                  "truncated side info");
  }

  DecodedGranule out;
  for (int t = 0; t < kBlocksPerGranule; ++t) {
    SubbandBlock sb{};
    for (int k = 0; k < kSubbands; ++k) {
      const int bits = alloc[static_cast<std::size_t>(k)];
      if (bits == 0) {
        sb[static_cast<std::size_t>(k)] = 0.0;
        continue;
      }
      // Sign-extend the two's-complement field.
      auto raw = static_cast<std::uint32_t>(r.get_bits(static_cast<unsigned>(bits)));
      const std::uint32_t sign_bit = 1u << (bits - 1);
      std::int32_t q = static_cast<std::int32_t>(raw);
      if (raw & sign_bit) q -= (1 << bits);
      const double scale = scalefactor_value(sf_idx[static_cast<std::size_t>(k)]);
      sb[static_cast<std::size_t>(k)] = dequantize_sample(q, bits) * scale;
    }
    const auto pcm = synthesizer_.synthesize(sb);
    for (int i = 0; i < kSubbands; ++i) {
      out.samples[static_cast<std::size_t>(t * kSubbands + i)] = pcm[static_cast<std::size_t>(i)];
    }
  }

  const auto anc_len = r.get_bits(16);
  if (!r.ok()) {
    return Result<DecodedGranule>(StatusCode::kCorruptData,
                                  "truncated sample data");
  }
  for (std::uint64_t i = 0; i < anc_len; ++i) {
    out.ancillary.push_back(static_cast<std::uint8_t>(r.get_bits(8)));
  }
  if (!r.ok()) {
    return Result<DecodedGranule>(StatusCode::kCorruptData,
                                  "truncated ancillary data");
  }
  return out;
}

}  // namespace mmsoc::audio
