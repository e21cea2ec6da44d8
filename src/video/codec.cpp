#include "video/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/dct.h"
#include "dsp/dispatch.h"
#include "video/vlc.h"

namespace mmsoc::video {
namespace {

using common::BitReader;
using common::BitWriter;
using common::Result;
using common::StatusCode;

constexpr int kBlock = dsp::kDctSize;  // 8
constexpr std::size_t kCoeffs = kBlock * kBlock;

// Visit the 8x8 blocks of a w x h plane in raster order: fn(bx, by, i),
// where i is the block's first entry in a block-linear array.
template <typename Fn>
void for_each_block(int w, int h, Fn&& fn) {
  std::size_t i = 0;
  for (int by = 0; by < h; by += kBlock) {
    for (int bx = 0; bx < w; bx += kBlock, i += kCoeffs) fn(bx, by, i);
  }
}

std::array<const Plane*, 3> planes_of(const Frame& f) {
  return {&f.y(), &f.cb(), &f.cr()};
}

std::array<Plane*, 3> planes_of(Frame& f) { return {&f.y(), &f.cb(), &f.cr()}; }

// The MC prediction into `out`: flat 128 on I frames, else `ref`
// compensated by `field`.
void prediction(const FrameHeader& h, const Plane& ref,
                const MotionField& field, bool chroma, Plane& out) {
  if (h.intra()) {
    out.fill(128);
  } else if (chroma) {
    compensate_chroma(ref, field, out);
  } else {
    compensate(ref, field, out);
  }
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

// The variable length decode of one plane's blocks (entropy_code's
// inverse for one plane).
bool decode_levels(BitReader& in, bool intra, std::span<std::int16_t> levels) {
  std::int16_t dc_pred = 0;
  for (std::size_t b = 0; b < levels.size(); b += kCoeffs) {
    if (!decode_block(in, intra, dc_pred, levels.subspan(b).first<kCoeffs>()))
      return false;
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

common::Status check_frame_size(int width, int height) {
  if (width > 0 && height > 0 && width % kMacroblockSize == 0 &&
      height % kMacroblockSize == 0) {
    return common::Status::ok();
  }
  return common::Status(StatusCode::kInvalidArgument,
                        "video codec: frame " + std::to_string(width) + "x" +
                            std::to_string(height) +
                            " is not a positive multiple of 16");
}

Quantizer FrameHeader::quantizer() const noexcept {
  if (!intra()) return Quantizer(default_inter_matrix(), qscale);
  return Quantizer(
      alternate_standard ? alternate_intra_matrix() : default_intra_matrix(),
      qscale);
}

void predict(const FrameHeader& h, const Plane& cur, const Plane& ref,
             const MotionField& field, bool chroma, Plane& pred,
             std::span<std::int16_t> residual) {
  prediction(h, ref, field, chroma, pred);
  for_each_block(cur.width(), cur.height(), [&](int bx, int by, std::size_t i) {
    for (int y = 0; y < kBlock; ++y) {
      const std::uint8_t* c = cur.row(by + y) + bx;
      const std::uint8_t* p = pred.row(by + y) + bx;
      for (int x = 0; x < kBlock; ++x) {
        residual[i++] = static_cast<std::int16_t>(c[x] - p[x]);
      }
    }
  });
}

void forward_dct(std::span<const std::int16_t> residual,
                 std::span<float> coeffs) {
  alignas(32) dsp::Block in, out;
  for (std::size_t b = 0; b < residual.size(); b += kCoeffs) {
    std::copy_n(residual.begin() + b, kCoeffs, in.begin());
    dsp::dct2d(in, out);
    std::copy(out.begin(), out.end(), coeffs.begin() + b);
  }
}

void quantize(const FrameHeader& h, std::span<const float> coeffs,
              std::span<std::int16_t> levels) {
  const Quantizer q = h.quantizer();
  for (std::size_t b = 0; b < coeffs.size(); b += kCoeffs) {
    q.quantize(coeffs.subspan(b).first<kCoeffs>(),
               levels.subspan(b).first<kCoeffs>());
  }
}

std::uint64_t entropy_code(
    const FrameHeader& h, const MotionField& field,
    std::initializer_list<std::span<const std::int16_t>> planes,
    BitWriter& out) {
  // Frame header: type, qscale, dimensions in macroblocks, standard flag.
  out.put_bits(static_cast<std::uint64_t>(h.type), 1);
  out.put_bits(static_cast<std::uint64_t>(h.qscale), 5);
  out.put_ue(static_cast<std::uint32_t>(h.width / kMacroblockSize));
  out.put_ue(static_cast<std::uint32_t>(h.height / kMacroblockSize));
  out.put_bit(h.alternate_standard ? 1 : 0);
  if (!h.intra()) write_motion_field(field, out);
  std::uint64_t symbols = 0;
  for (const auto levels : planes) {
    std::int16_t dc_pred = 0;  // per plane; unused on P frames
    for (std::size_t b = 0; b < levels.size(); b += kCoeffs) {
      symbols += encode_block(levels.subspan(b).first<kCoeffs>(), h.intra(),
                              dc_pred, out)
                     .symbols;
    }
  }
  return symbols;
}

void inverse_dct(const FrameHeader& h, std::span<const std::int16_t> levels,
                 std::span<float> residual) {
  const Quantizer q = h.quantizer();
  alignas(32) dsp::Block coeffs, out;
  for (std::size_t b = 0; b < levels.size(); b += kCoeffs) {
    q.dequantize(levels.subspan(b).first<kCoeffs>(), coeffs);
    dsp::idct2d(coeffs, out);
    std::copy(out.begin(), out.end(), residual.begin() + b);
  }
}

void reconstruct(std::span<const float> residual, const Plane& pred,
                 Plane& out) {
  const auto add = dsp::kernels().reconstruct8x8;
  for_each_block(pred.width(), pred.height(), [&](int bx, int by, std::size_t i) {
    add(&residual[i], pred.row(by) + bx, pred.stride(), out.row(by) + bx,
        out.stride());
  });
}

VideoEncoder::VideoEncoder(const EncoderConfig& config)
    : config_(config),
      buffer_(static_cast<std::uint64_t>(
                  std::max(1.0, config.bitrate_bps * 0.5)),  // 0.5 s vbv
              static_cast<std::uint64_t>(
                  std::max(1.0, config.bitrate_bps / std::max(1.0, config.fps)))) {
  const auto st = check_frame_size(config.width, config.height);
  if (!st.is_ok()) throw std::invalid_argument(st.message());
  recon_ = Frame(config.width, config.height, kReferenceBorder);
  pred_ = Frame(config.width, config.height);
}

int VideoEncoder::pick_qscale() noexcept {
  if (!config_.rate_control) return config_.qscale;
  return buffer_.suggest_quantizer(2, 31);
}

EncodedFrame VideoEncoder::encode(const Frame& frame) {
  if (frame.width() != config_.width || frame.height() != config_.height) {
    throw std::invalid_argument("video encoder: frame is not the configured size");
  }
  EncodedFrame result;
  const bool intra = force_intra_ || !have_reference_ ||
                     (config_.gop_size > 0 &&
                      frame_index_ % std::max(1, config_.gop_size) == 0);
  force_intra_ = false;
  const FrameHeader h{intra ? FrameType::kIntra : FrameType::kPredicted,
                      pick_qscale(), config_.width, config_.height,
                      config_.alternate_standard};
  result.type = h.type;
  result.qscale = h.qscale;

  // MOTION ESTIMATOR: search against the reconstructed reference.
  MotionField field;
  if (!intra) {
    field = estimate_frame(frame.y(), recon_.y(), config_.search_range,
                           config_.me_algo);
    result.ops.me_sad_ops =
        field.total_evaluations() * kMacroblockSize * kMacroblockSize;
  }

  // Each plane through the local decode loop. A plane's reconstruction
  // replaces its reference only after its prediction was built.
  std::array<std::vector<std::int16_t>, 3> levels;
  std::vector<std::int16_t> residual;
  std::vector<float> coeffs;
  const auto src = planes_of(frame);
  const auto rec = planes_of(recon_);
  const auto pred = planes_of(pred_);
  for (std::size_t p = 0; p < 3; ++p) {
    const std::size_t n =
        static_cast<std::size_t>(src[p]->width()) * src[p]->height();
    residual.resize(n);
    coeffs.resize(n);
    levels[p].resize(n);
    predict(h, *src[p], *rec[p], field, p > 0, *pred[p], residual);
    forward_dct(residual, coeffs);
    quantize(h, coeffs, levels[p]);
    inverse_dct(h, levels[p], coeffs);
    reconstruct(coeffs, *pred[p], *rec[p]);
    rec[p]->extend_edges();
    if (!intra) result.ops.mc_pixels += n;
    result.ops.dct_blocks += n / kCoeffs;
    result.ops.quant_coeffs += n;
    result.ops.idct_blocks += n / kCoeffs;
  }

  BitWriter out;
  result.ops.vlc_symbols =
      entropy_code(h, field, {levels[0], levels[1], levels[2]}, out);
  result.bytes = out.take();
  buffer_.add_frame(result.bytes.size() * 8);
  result.buffer_fullness = buffer_.fullness_ratio();
  have_reference_ = true;
  ++frame_index_;
  return result;
}

Result<Frame> VideoDecoder::decode(std::span<const std::uint8_t> bytes) {
  BitReader in(bytes);
  FrameHeader h;
  h.type = static_cast<FrameType>(in.get_bits(1));
  h.qscale = static_cast<int>(in.get_bits(5));
  const int mbs_x = static_cast<int>(in.get_ue());
  const int mbs_y = static_cast<int>(in.get_ue());
  h.alternate_standard = in.get_bit() != 0;
  if (!in.ok() || mbs_x <= 0 || mbs_y <= 0 || mbs_x > 1024 || mbs_y > 1024) {
    return Result<Frame>(StatusCode::kCorruptData, "bad frame header");
  }
  h.width = mbs_x * kMacroblockSize;
  h.height = mbs_y * kMacroblockSize;

  MotionField field;
  if (!h.intra()) {
    if (!ref_.has_value() || ref_->width() != h.width ||
        ref_->height() != h.height) {
      return Result<Frame>(StatusCode::kInvalidArgument,
                           "P frame without matching reference");
    }
    field.blocks_x = mbs_x;
    field.blocks_y = mbs_y;
    if (!read_motion_field(in, field)) {
      return Result<Frame>(StatusCode::kCorruptData, "motion field decode failed");
    }
  }

  Frame out(h.width, h.height);
  Frame pred(h.width, h.height);
  const auto dst = planes_of(out);
  std::vector<std::int16_t> levels;
  std::vector<float> residual;
  for (std::size_t p = 0; p < 3; ++p) {
    const std::size_t n =
        static_cast<std::size_t>(dst[p]->width()) * dst[p]->height();
    levels.resize(n);
    residual.resize(n);
    if (!decode_levels(in, h.intra(), levels)) {
      return Result<Frame>(StatusCode::kCorruptData,
                           h.intra() ? "intra plane decode failed"
                                     : "inter plane decode failed");
    }
    inverse_dct(h, levels, residual);
    const Plane& ref = h.intra() ? *dst[p] : *planes_of(*ref_)[p];
    prediction(h, ref, field, p > 0, *planes_of(pred)[p]);
    reconstruct(residual, *planes_of(pred)[p], *dst[p]);
  }
  ref_ = out;
  return out;
}

}  // namespace mmsoc::video
