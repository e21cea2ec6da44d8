// FIG1 — Figure 1 (video encoder structure): per-stage cost breakdown of
// the encoder loop, plus whole-frame encode/decode throughput.
//
// Regenerates the figure as numbers: which box of Fig. 1 costs what, for
// I frames (no motion path) vs P frames (full loop).
#include "bench_util.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "core/appgraphs.h"
#include "dsp/crc32.h"
#include "video/codec.h"
#include "video/metrics.h"
#include "video/source.h"

namespace {

using namespace mmsoc;

constexpr int kW = 128, kH = 128;

std::vector<video::Frame> make_frames(int n) {
  std::vector<video::Frame> frames;
  const auto scene = video::scene_high_detail(1);
  for (int i = 0; i < n; ++i)
    frames.push_back(video::SyntheticVideo::render(kW, kH, scene, i));
  return frames;
}

void print_breakdown(const char* label, const video::StageOps& ops) {
  // RISC-normalized op costs: the weights the MPSoC task graphs use.
  const core::VideoCosts c{};
  const double total = c.weigh(ops);
  const double me = c.per_sad_op * static_cast<double>(ops.me_sad_ops);
  const double mc = c.per_mc_pixel * static_cast<double>(ops.mc_pixels);
  const double dct = c.per_dct_block * static_cast<double>(ops.dct_blocks);
  const double q = c.per_quant_coeff * static_cast<double>(ops.quant_coeffs);
  const double vlc = c.per_vlc_symbol * static_cast<double>(ops.vlc_symbols);
  const double idct = c.per_dct_block * static_cast<double>(ops.idct_blocks);
  std::printf("%-8s %10.0f %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
              label, total, 100 * me / total, 100 * mc / total,
              100 * dct / total, 100 * q / total, 100 * vlc / total,
              100 * idct / total);
}

void print_tables() {
  mmsoc::bench::banner("FIG1", "video encoder per-stage breakdown (128x128)");
  std::printf("%-8s %10s %7s %7s %7s %7s %7s %7s\n", "frame", "ops",
              "ME", "MC", "DCT", "QUANT", "VLC", "IDCT");
  mmsoc::bench::rule();

  video::EncoderConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.gop_size = 12;
  cfg.me_algo = video::SearchAlgorithm::kFullSearch;
  video::VideoEncoder enc(cfg);
  const auto frames = make_frames(6);
  video::StageOps i_ops, p_ops;
  int p_count = 0;
  for (const auto& f : frames) {
    const auto e = enc.encode(f);
    if (e.type == video::FrameType::kIntra) {
      i_ops += e.ops;
    } else {
      p_ops += e.ops;
      ++p_count;
    }
  }
  print_breakdown("I-frame", i_ops);
  if (p_count > 0) print_breakdown("P-frame", p_ops);
  std::printf("\nReading: the motion estimator dominates P-frame cost (the\n"
              "paper's motivation for ME accelerators); DCT/IDCT dominate\n"
              "I frames. The VLC/quantizer are comparatively cheap.\n");
}

// Capture, the graph's first box: one CIF luma render of a high-motion
// scene by one reused renderer into one reused plane, as the Fig. 1
// capture stage does per frame.
void BM_RenderLuma(benchmark::State& state) {
  video::LumaRenderer renderer(video::scene_high_motion(1), 352, 288);
  video::Plane luma(352, 288);
  int frame = 0;
  for (auto _ : state) {
    renderer.render(frame++, luma);
    benchmark::DoNotOptimize(luma.row(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderLuma);

// The digest the Fig. 1 reconstruct stage chains over every frame: the
// dispatched CRC-32 of one packed CIF luma plane.
void BM_Crc32Plane(benchmark::State& state) {
  const auto luma = video::SyntheticVideo::render(352, 288, video::scene_high_motion(1), 0).y();
  std::vector<std::uint8_t> packed(static_cast<std::size_t>(luma.width()) * luma.height());
  luma.copy_packed_to(packed.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::crc32(packed));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(packed.size()));
}
BENCHMARK(BM_Crc32Plane);

// The MOTION ESTIMATOR on one CIF P frame, as the Fig. 1 motion-estimator
// stage runs it: a three-step search at range 8 of every macroblock
// against a reference carrying video::kReferenceBorder.
void BM_EstimateFrame(benchmark::State& state) {
  constexpr int w = 352, h = 288;
  const auto scene = video::scene_high_motion(1);
  video::Plane ref(w, h, 0, video::kReferenceBorder);
  std::vector<std::uint8_t> packed(static_cast<std::size_t>(w) * h);
  video::SyntheticVideo::render(w, h, scene, 0).y().copy_packed_to(packed.data());
  ref.copy_packed_from(packed.data(), packed.size());
  ref.extend_edges();
  const auto cur = video::SyntheticVideo::render(w, h, scene, 1).y();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        video::estimate_frame(cur, ref, 8, video::SearchAlgorithm::kThreeStep));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimateFrame);

// The reconstruction adder of one CIF P frame, as the Fig. 1 reconstruct
// stage runs it: a decoded residual plus the prediction, rounded into a
// reused plane.
void BM_Reconstruct(benchmark::State& state) {
  constexpr int w = 352, h = 288;
  constexpr std::size_t n = static_cast<std::size_t>(w) * h;
  const auto scene = video::scene_high_motion(1);
  const auto ref = video::SyntheticVideo::render(w, h, scene, 0).y();
  const auto cur = video::SyntheticVideo::render(w, h, scene, 1).y();
  const video::FrameHeader hd{video::FrameType::kPredicted, 8, w, h, false};
  const auto field =
      video::estimate_frame(cur, ref, 8, video::SearchAlgorithm::kThreeStep);
  std::vector<std::int16_t> residual(n), levels(n);
  std::vector<float> decoded(n);
  video::Plane pred(w, h), out(w, h);
  video::predict(hd, cur, ref, field, /*chroma=*/false, pred, residual);
  video::forward_dct(residual, decoded);
  video::quantize(hd, decoded, levels);
  video::inverse_dct(hd, levels, decoded);
  for (auto _ : state) {
    video::reconstruct(decoded, pred, out);
    benchmark::DoNotOptimize(out.row(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Reconstruct);

// VARIABLE LENGTH ENCODE of one CIF luma frame of a high-motion scene, as
// the Fig. 1 VLC stage runs it: header, vectors (P) and 1584 blocks into a
// recycled buffer. Arg 0 codes the I frame, arg 1 the P frame after it.
void BM_EntropyCode(benchmark::State& state) {
  constexpr int w = 352, h = 288;
  constexpr std::size_t n = static_cast<std::size_t>(w) * h;
  const bool intra = state.range(0) == 0;
  const auto scene = video::scene_high_motion(1);
  const auto ref = video::SyntheticVideo::render(w, h, scene, 0).y();
  const auto cur = video::SyntheticVideo::render(w, h, scene, intra ? 0 : 1).y();
  const video::FrameHeader hd{
      intra ? video::FrameType::kIntra : video::FrameType::kPredicted, 8, w, h,
      false};
  video::MotionField field;
  if (!intra) {
    field = video::estimate_frame(cur, ref, 8, video::SearchAlgorithm::kThreeStep);
  }
  std::vector<std::int16_t> residual(n), levels(n);
  std::vector<float> coeffs(n);
  video::Plane pred(w, h);
  video::predict(hd, cur, ref, field, /*chroma=*/false, pred, residual);
  video::forward_dct(residual, coeffs);
  video::quantize(hd, coeffs, levels);
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    common::BitWriter out(std::move(bytes));
    benchmark::DoNotOptimize(video::entropy_code(hd, field, {levels}, out));
    bytes = out.take();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntropyCode)->ArgName("predicted")->Arg(0)->Arg(1);

void BM_EncodeFrameIntra(benchmark::State& state) {
  video::EncoderConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.gop_size = 1;
  video::VideoEncoder enc(cfg);
  const auto frames = make_frames(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(frames[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeFrameIntra);

void BM_EncodeFramePredicted(benchmark::State& state) {
  video::EncoderConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.gop_size = 1000;
  cfg.me_algo = static_cast<video::SearchAlgorithm>(state.range(0));
  video::VideoEncoder enc(cfg);
  const auto frames = make_frames(2);
  enc.encode(frames[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(frames[1]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeFramePredicted)
    ->Arg(static_cast<int>(video::SearchAlgorithm::kFullSearch))
    ->Arg(static_cast<int>(video::SearchAlgorithm::kThreeStep))
    ->Arg(static_cast<int>(video::SearchAlgorithm::kDiamond));

void BM_DecodeFrame(benchmark::State& state) {
  video::EncoderConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.gop_size = 1;
  video::VideoEncoder enc(cfg);
  const auto frames = make_frames(1);
  const auto encoded = enc.encode(frames[0]);
  for (auto _ : state) {
    video::VideoDecoder dec;
    benchmark::DoNotOptimize(dec.decode(encoded.bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeFrame);

}  // namespace

MMSOC_BENCH_MAIN(print_tables)
