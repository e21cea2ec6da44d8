// The complete Fig. 1 video codec.
//
// Encoder structure exactly as the paper's Figure 1: DCT -> QUANTIZER ->
// VARIABLE LENGTH ENCODE -> BUFFER on the forward path, with the local
// decode loop (INVERSE DCT -> MOTION COMPENSATED PREDICTOR) and the
// MOTION ESTIMATOR feeding the predictor. I frames are coded standalone;
// P frames code the motion-compensated residual. The encoder keeps a
// bit-exact copy of the decoder's reference frame so predictions never
// drift.
//
// Each Fig. 1 box is one stage function: predict (MC predictor plus the
// residual), forward_dct, quantize, entropy_code (VLC), inverse_dct and
// reconstruct, with estimate_frame (video/motion.h) as the motion
// estimator. VideoEncoder::encode runs them on Y, Cb and Cr, VideoDecoder
// shares inverse_dct and reconstruct, and the runtime's Fig. 1 graph
// (runtime/pipelines.h) runs one per task on luma.
//
// Every stage reports operation counts (StageOps) so the Fig. 1 breakdown
// bench and the MPSoC task-graph builder can both use measured, not
// assumed, per-stage costs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "common/bitstream.h"
#include "common/status.h"
#include "entropy/rate_buffer.h"
#include "video/frame.h"
#include "video/motion.h"
#include "video/quantizer.h"

namespace mmsoc::video {

enum class FrameType : std::uint8_t { kIntra = 0, kPredicted = 1 };

/// Per-stage operation counts for one encoded frame (Fig. 1 boxes).
struct StageOps {
  std::uint64_t me_sad_ops = 0;      ///< absolute-difference ops in the motion estimator
  std::uint64_t mc_pixels = 0;       ///< pixels produced by the MC predictor
  std::uint64_t dct_blocks = 0;      ///< forward 8x8 DCTs
  std::uint64_t quant_coeffs = 0;    ///< coefficients quantized
  std::uint64_t vlc_symbols = 0;     ///< Huffman symbols emitted
  std::uint64_t idct_blocks = 0;     ///< inverse 8x8 DCTs (reconstruction loop)

  StageOps& operator+=(const StageOps& o) noexcept;
};

/// Frame sizes the codec takes: positive multiples of kMacroblockSize
/// (the frame header carries macroblock counts), else kInvalidArgument.
[[nodiscard]] common::Status check_frame_size(int width, int height);

/// What a frame header carries; the stage functions below read it.
struct FrameHeader {
  FrameType type = FrameType::kIntra;
  int qscale = 8;
  int width = 0;  ///< luma pixels
  int height = 0;
  bool alternate_standard = false;

  [[nodiscard]] bool intra() const noexcept { return type == FrameType::kIntra; }
  /// The intra matrix (the alternate standard's when set) on I frames,
  /// the flat inter matrix on P frames, at qscale.
  [[nodiscard]] Quantizer quantizer() const noexcept;
};

// ---- Fig. 1 stage functions, one plane at a time --------------------------
// Per-block arrays (residual, coefficients, levels) are block-linear: 64
// entries per 8x8 block, blocks in raster order.

/// MOTION COMPENSATED PREDICTOR: writes the prediction of `cur` into
/// `pred`, a caller-owned plane of cur's size (flat 128 on I frames, else
/// `ref` compensated by `field`, vectors halved on `chroma` planes), and
/// fills `residual` = cur - prediction.
void predict(const FrameHeader& h, const Plane& cur, const Plane& ref,
             const MotionField& field, bool chroma, Plane& pred,
             std::span<std::int16_t> residual);

/// DCT: forward 8x8 DCT of each residual block.
void forward_dct(std::span<const std::int16_t> residual,
                 std::span<float> coeffs);

/// QUANTIZER: h.quantizer() over each block.
void quantize(const FrameHeader& h, std::span<const float> coeffs,
              std::span<std::int16_t> levels);

/// VARIABLE LENGTH ENCODE: the frame header, the motion field on P
/// frames, then each plane's blocks (DC coded differentially on I
/// frames). Returns the Huffman symbols emitted.
std::uint64_t entropy_code(
    const FrameHeader& h, const MotionField& field,
    std::initializer_list<std::span<const std::int16_t>> planes,
    common::BitWriter& out);

/// INVERSE DCT: dequantize and inverse-transform each block.
void inverse_dct(const FrameHeader& h, std::span<const std::int16_t> levels,
                 std::span<float> residual);

/// Reconstruction adder: round_half_away(residual + pred), clamped to
/// 8 bits, into `out` (pred's size; it may be `pred` itself). A
/// reference plane with a border needs out.extend_edges() afterwards.
void reconstruct(std::span<const float> residual, const Plane& pred,
                 Plane& out);

/// Result of encoding one frame.
struct EncodedFrame {
  std::vector<std::uint8_t> bytes;
  FrameType type = FrameType::kIntra;
  int qscale = 0;
  StageOps ops;
  double buffer_fullness = 0.0;  ///< rate buffer state after this frame
};

struct EncoderConfig {
  int width = 0;
  int height = 0;
  int gop_size = 12;       ///< I-frame every gop_size frames (1 = all-intra)
  int qscale = 8;          ///< base quantizer scale when rate control is off
  bool rate_control = false;
  double bitrate_bps = 1.5e6;  ///< channel rate for the Fig. 1 buffer
  double fps = 30.0;
  int search_range = 8;
  SearchAlgorithm me_algo = SearchAlgorithm::kThreeStep;
  /// Use the alternate quant matrix ("standard B") — transcoding study.
  bool alternate_standard = false;
};

class VideoEncoder {
 public:
  /// Throws std::invalid_argument for a size check_frame_size rejects.
  explicit VideoEncoder(const EncoderConfig& config);

  /// Encode the next frame in display order. Throws
  /// std::invalid_argument unless the frame has the configured size.
  EncodedFrame encode(const Frame& frame);

  /// The decoder-identical reconstruction of the last encoded frame.
  [[nodiscard]] const Frame& reconstructed() const noexcept { return recon_; }

  [[nodiscard]] const EncoderConfig& config() const noexcept { return config_; }

  /// Force the next frame to be coded intra (e.g. at scene cuts).
  void request_intra() noexcept { force_intra_ = true; }

 private:
  EncoderConfig config_;
  entropy::RateBuffer buffer_;
  Frame recon_;  ///< the reference, with kReferenceBorder, edges extended
  Frame pred_;   ///< each plane's prediction, reused frame to frame
  int frame_index_ = 0;
  bool have_reference_ = false;
  bool force_intra_ = false;

  int pick_qscale() noexcept;
};

class VideoDecoder {
 public:
  VideoDecoder() = default;

  /// Decode one encoded frame. P frames require the previous output.
  common::Result<Frame> decode(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::optional<Frame>& last_frame() const noexcept {
    return ref_;
  }

 private:
  std::optional<Frame> ref_;
};

}  // namespace mmsoc::video
