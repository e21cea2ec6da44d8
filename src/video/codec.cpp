#include "video/codec.h"

#include <algorithm>
#include <cmath>

#include "common/bitstream.h"
#include "common/mathutil.h"
#include "dsp/dct.h"
#include "video/vlc.h"

namespace mmsoc::video {
namespace {

using common::BitReader;
using common::BitWriter;
using common::Result;
using common::StatusCode;

constexpr int kBlock = dsp::kDctSize;  // 8

// Extract an 8x8 block (minus a bias) from a plane into float.
void load_block(const Plane& p, int bx, int by, float bias, dsp::Block& out) {
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x)
      out[static_cast<std::size_t>(y) * kBlock + x] =
          static_cast<float>(p.at(bx + x, by + y)) - bias;
}

// Extract the residual between a plane and its prediction.
void load_residual(const Plane& cur, const Plane& pred, int bx, int by,
                   dsp::Block& out) {
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x)
      out[static_cast<std::size_t>(y) * kBlock + x] =
          static_cast<float>(cur.at(bx + x, by + y)) -
          static_cast<float>(pred.at(bx + x, by + y));
}

// Write a reconstructed intra block back (adding the bias).
void store_block(Plane& p, int bx, int by, float bias, const dsp::Block& in) {
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x)
      p.set(bx + x, by + y,
            common::clamp_u8(common::round_half_away(
                in[static_cast<std::size_t>(y) * kBlock + x] + bias)));
}

// Add a residual block onto a prediction and store.
void store_residual(Plane& p, const Plane& pred, int bx, int by,
                    const dsp::Block& in) {
  for (int y = 0; y < kBlock; ++y)
    for (int x = 0; x < kBlock; ++x)
      p.set(bx + x, by + y,
            common::clamp_u8(common::round_half_away(
                in[static_cast<std::size_t>(y) * kBlock + x] +
                pred.at(bx + x, by + y))));
}

// Encode one plane (intra path). Updates ops and reconstructs into recon.
void encode_plane_intra(const Plane& src, Plane& recon, const Quantizer& q,
                        StageOps& ops, BitWriter& out) {
  std::int16_t dc_pred = 0;
  alignas(32) dsp::Block blk, coeffs;
  alignas(32) std::array<std::int16_t, 64> levels;
  for (int by = 0; by < src.height(); by += kBlock) {
    for (int bx = 0; bx < src.width(); bx += kBlock) {
      load_block(src, bx, by, 128.0f, blk);
      dsp::dct2d(blk, coeffs);
      ++ops.dct_blocks;
      q.quantize(coeffs, levels);
      ops.quant_coeffs += 64;
      const auto st = encode_block(levels, /*code_dc=*/true, dc_pred, out);
      ops.vlc_symbols += st.symbols;
      // Local decode loop: dequantize + IDCT to build the reference.
      q.dequantize(levels, coeffs);
      dsp::idct2d(coeffs, blk);
      ++ops.idct_blocks;
      store_block(recon, bx, by, 128.0f, blk);
    }
  }
}

// Encode one plane (inter path) given its prediction.
void encode_plane_inter(const Plane& src, const Plane& pred, Plane& recon,
                        const Quantizer& q, StageOps& ops, BitWriter& out) {
  std::int16_t dc_pred = 0;  // unused in inter mode (code_dc = false)
  alignas(32) dsp::Block blk, coeffs;
  alignas(32) std::array<std::int16_t, 64> levels;
  for (int by = 0; by < src.height(); by += kBlock) {
    for (int bx = 0; bx < src.width(); bx += kBlock) {
      load_residual(src, pred, bx, by, blk);
      dsp::dct2d(blk, coeffs);
      ++ops.dct_blocks;
      q.quantize(coeffs, levels);
      ops.quant_coeffs += 64;
      const auto st = encode_block(levels, /*code_dc=*/false, dc_pred, out);
      ops.vlc_symbols += st.symbols;
      q.dequantize(levels, coeffs);
      dsp::idct2d(coeffs, blk);
      ++ops.idct_blocks;
      store_residual(recon, pred, bx, by, blk);
    }
  }
}

bool decode_plane_intra(BitReader& in, Plane& out, const Quantizer& q) {
  std::int16_t dc_pred = 0;
  alignas(32) dsp::Block coeffs, blk;
  alignas(32) std::array<std::int16_t, 64> levels;
  for (int by = 0; by < out.height(); by += kBlock) {
    for (int bx = 0; bx < out.width(); bx += kBlock) {
      if (!decode_block(in, /*code_dc=*/true, dc_pred, levels)) return false;
      q.dequantize(levels, coeffs);
      dsp::idct2d(coeffs, blk);
      store_block(out, bx, by, 128.0f, blk);
    }
  }
  return true;
}

bool decode_plane_inter(BitReader& in, const Plane& pred, Plane& out,
                        const Quantizer& q) {
  std::int16_t dc_pred = 0;
  alignas(32) dsp::Block coeffs, blk;
  alignas(32) std::array<std::int16_t, 64> levels;
  for (int by = 0; by < out.height(); by += kBlock) {
    for (int bx = 0; bx < out.width(); bx += kBlock) {
      if (!decode_block(in, /*code_dc=*/false, dc_pred, levels)) return false;
      q.dequantize(levels, coeffs);
      dsp::idct2d(coeffs, blk);
      store_residual(out, pred, bx, by, blk);
    }
  }
  return true;
}

void write_motion_field(const MotionField& field, BitWriter& out) {
  MotionVector pred{};
  for (int by = 0; by < field.blocks_y; ++by) {
    pred = MotionVector{};  // reset predictor each macroblock row
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const auto& mv =
          field.blocks[static_cast<std::size_t>(by) * field.blocks_x + bx].mv;
      out.put_se(mv.dx - pred.dx);
      out.put_se(mv.dy - pred.dy);
      pred = mv;
    }
  }
}

bool read_motion_field(BitReader& in, MotionField& field) {
  field.blocks.resize(static_cast<std::size_t>(field.blocks_x) *
                      field.blocks_y);
  MotionVector pred{};
  for (int by = 0; by < field.blocks_y; ++by) {
    pred = MotionVector{};
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      MotionVector mv;
      mv.dx = pred.dx + in.get_se();
      mv.dy = pred.dy + in.get_se();
      if (!in.ok() || std::abs(mv.dx) > 1024 || std::abs(mv.dy) > 1024)
        return false;
      field.blocks[static_cast<std::size_t>(by) * field.blocks_x + bx].mv = mv;
      pred = mv;
    }
  }
  return true;
}

}  // namespace

StageOps& StageOps::operator+=(const StageOps& o) noexcept {
  me_sad_ops += o.me_sad_ops;
  mc_pixels += o.mc_pixels;
  dct_blocks += o.dct_blocks;
  quant_coeffs += o.quant_coeffs;
  vlc_symbols += o.vlc_symbols;
  idct_blocks += o.idct_blocks;
  return *this;
}

VideoEncoder::VideoEncoder(const EncoderConfig& config)
    : config_(config),
      buffer_(static_cast<std::uint64_t>(
                  std::max(1.0, config.bitrate_bps * 0.5)),  // 0.5 s vbv
              static_cast<std::uint64_t>(
                  std::max(1.0, config.bitrate_bps / std::max(1.0, config.fps)))),
      recon_(config.width, config.height) {}

int VideoEncoder::pick_qscale() noexcept {
  if (!config_.rate_control) return config_.qscale;
  return buffer_.suggest_quantizer(2, 31);
}

EncodedFrame VideoEncoder::encode(const Frame& frame) {
  EncodedFrame result;
  const bool intra = force_intra_ || !have_reference_ ||
                     (config_.gop_size > 0 &&
                      frame_index_ % std::max(1, config_.gop_size) == 0);
  force_intra_ = false;
  result.type = intra ? FrameType::kIntra : FrameType::kPredicted;
  result.qscale = pick_qscale();

  const QuantMatrix& intra_m = config_.alternate_standard
                                   ? alternate_intra_matrix()
                                   : default_intra_matrix();
  const Quantizer qi(intra_m, result.qscale);
  const Quantizer qp(default_inter_matrix(), result.qscale);

  BitWriter out;
  // Frame header: type, qscale, dimensions in macroblocks, standard flag.
  out.put_bits(static_cast<std::uint64_t>(result.type), 1);
  out.put_bits(static_cast<std::uint64_t>(result.qscale), 5);
  out.put_ue(static_cast<std::uint32_t>(config_.width / kMacroblockSize));
  out.put_ue(static_cast<std::uint32_t>(config_.height / kMacroblockSize));
  out.put_bit(config_.alternate_standard ? 1 : 0);

  if (intra) {
    encode_plane_intra(frame.y(), recon_.y(), qi, result.ops, out);
    encode_plane_intra(frame.cb(), recon_.cb(), qi, result.ops, out);
    encode_plane_intra(frame.cr(), recon_.cr(), qi, result.ops, out);
  } else {
    // MOTION ESTIMATOR: search against the reconstructed reference.
    MotionField field = estimate_frame(frame.y(), recon_.y(),
                                       config_.search_range, config_.me_algo);
    result.ops.me_sad_ops =
        field.total_evaluations() * kMacroblockSize * kMacroblockSize;
    write_motion_field(field, out);

    // MOTION COMPENSATED PREDICTOR.
    const Plane pred_y = compensate(recon_.y(), field);
    const Plane pred_cb = compensate_chroma(recon_.cb(), field);
    const Plane pred_cr = compensate_chroma(recon_.cr(), field);
    result.ops.mc_pixels =
        static_cast<std::uint64_t>(pred_y.width()) * pred_y.height() +
        2ull * static_cast<std::uint64_t>(pred_cb.width()) * pred_cb.height();

    Frame new_recon(config_.width, config_.height);
    encode_plane_inter(frame.y(), pred_y, new_recon.y(), qp, result.ops, out);
    encode_plane_inter(frame.cb(), pred_cb, new_recon.cb(), qp, result.ops, out);
    encode_plane_inter(frame.cr(), pred_cr, new_recon.cr(), qp, result.ops, out);
    recon_ = std::move(new_recon);
  }

  result.bytes = out.take();
  buffer_.add_frame(result.bytes.size() * 8);
  result.buffer_fullness = buffer_.fullness_ratio();
  have_reference_ = true;
  ++frame_index_;
  return result;
}

Result<Frame> VideoDecoder::decode(std::span<const std::uint8_t> bytes) {
  BitReader in(bytes);
  const auto type = static_cast<FrameType>(in.get_bits(1));
  const int qscale = static_cast<int>(in.get_bits(5));
  const int mbs_x = static_cast<int>(in.get_ue());
  const int mbs_y = static_cast<int>(in.get_ue());
  const bool alternate = in.get_bit() != 0;
  if (!in.ok() || mbs_x <= 0 || mbs_y <= 0 || mbs_x > 1024 || mbs_y > 1024) {
    return Result<Frame>(StatusCode::kCorruptData, "bad frame header");
  }
  const int width = mbs_x * kMacroblockSize;
  const int height = mbs_y * kMacroblockSize;

  const QuantMatrix& intra_m =
      alternate ? alternate_intra_matrix() : default_intra_matrix();
  const Quantizer qi(intra_m, qscale);
  const Quantizer qp(default_inter_matrix(), qscale);

  Frame out(width, height);
  if (type == FrameType::kIntra) {
    if (!decode_plane_intra(in, out.y(), qi) ||
        !decode_plane_intra(in, out.cb(), qi) ||
        !decode_plane_intra(in, out.cr(), qi)) {
      return Result<Frame>(StatusCode::kCorruptData, "intra plane decode failed");
    }
  } else {
    if (!ref_.has_value() || ref_->width() != width ||
        ref_->height() != height) {
      return Result<Frame>(StatusCode::kInvalidArgument,
                           "P frame without matching reference");
    }
    MotionField field;
    field.blocks_x = mbs_x;
    field.blocks_y = mbs_y;
    if (!read_motion_field(in, field)) {
      return Result<Frame>(StatusCode::kCorruptData, "motion field decode failed");
    }
    const Plane pred_y = compensate(ref_->y(), field);
    const Plane pred_cb = compensate_chroma(ref_->cb(), field);
    const Plane pred_cr = compensate_chroma(ref_->cr(), field);
    if (!decode_plane_inter(in, pred_y, out.y(), qp) ||
        !decode_plane_inter(in, pred_cb, out.cb(), qp) ||
        !decode_plane_inter(in, pred_cr, out.cr(), qp)) {
      return Result<Frame>(StatusCode::kCorruptData, "inter plane decode failed");
    }
  }
  ref_ = out;
  return out;
}

}  // namespace mmsoc::video
