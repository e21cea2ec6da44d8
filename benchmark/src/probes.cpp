// Kernel and codec probes, run after a traced window: direct calls into
// dsp::kernels() on blocks cut from the workload's own frames (and from a
// music-like PCM signal for the filterbank), and per-frame render /
// encode / decode times of the video codec at the workload's frame size.
#include <algorithm>
#include <array>
#include <functional>

#include "audio/source.h"
#include "dsp/dispatch.h"
#include "video/codec.h"
#include "video/quantizer.h"
#include "video/source.h"
#include "workloads.h"

namespace mmsoc::bench {

namespace {

constexpr int kTrials = 7;

/// Median over trials of the mean ns per call of `pass`, which makes
/// `calls` kernel calls and returns a value folded into a sink so the
/// calls cannot be optimized away.
double ns_per_call(std::size_t calls, const std::function<double()>& pass) {
  volatile double sink = 0.0;
  std::vector<double> trials;
  sink = sink + pass();  // warm caches and the dispatch table
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t b = now_ns();
    double acc = 0.0;
    std::size_t done = 0;
    // Repeat the pass until a trial lasts ~2 ms, so timer cost vanishes.
    while (done == 0 || now_ns() - b < 2'000'000) {
      acc += pass();
      done += calls;
    }
    trials.push_back(static_cast<double>(now_ns() - b) / static_cast<double>(done));
    sink = sink + acc;
  }
  return median(trials);
}

}  // namespace

void run_probes(const ProbeInput& in, Metrics& out) {
  const dsp::KernelTable& k = dsp::kernels();
  const auto scene = video::scene_high_motion(in.scene_seed);
  const video::Frame f0 = video::SyntheticVideo::render(in.width, in.height, scene, 0);
  const video::Frame f1 = video::SyntheticVideo::render(in.width, in.height, scene, 1);
  const video::Plane& a = f0.y();
  const video::Plane& b = f1.y();

  // 8x8 blocks of the first frame, level-shifted, and their transforms.
  const int bx = in.width / 8;
  const int by = in.height / 8;
  const std::size_t blocks = static_cast<std::size_t>(bx) * by;
  std::vector<std::array<float, 64>> pix(blocks), coef(blocks);
  std::vector<std::array<std::int16_t, 64>> levels(blocks);
  for (int y = 0; y < by; ++y) {
    for (int x = 0; x < bx; ++x) {
      auto& blk = pix[static_cast<std::size_t>(y) * bx + x];
      for (int i = 0; i < 64; ++i) {
        blk[i] = static_cast<float>(a.at(x * 8 + i % 8, y * 8 + i / 8)) - 128.0f;
      }
    }
  }
  const video::Quantizer quant(video::default_inter_matrix(), 8);
  std::array<float, 64> steps{};
  for (int i = 0; i < 64; ++i) steps[i] = quant.step(i);
  for (std::size_t i = 0; i < blocks; ++i) {
    k.fdct8x8_f32(pix[i].data(), coef[i].data());
    k.quantize64(coef[i].data(), steps.data(), levels[i].data());
  }

  const int mbx = in.width / 16;
  const int mby = in.height / 16;
  const auto mbs = static_cast<std::size_t>(mbx) * mby;
  add_metric(out, "kernel.sad16.ns", ns_per_call(mbs, [&] {
               double s = 0;
               for (int y = 0; y < mby; ++y) {
                 for (int x = 0; x < mbx; ++x) {
                   s += k.sad16(a.row(y * 16) + x * 16, a.stride(),
                                b.row(y * 16) + x * 16, b.stride());
                 }
               }
               return s;
             }), "ns");
  std::array<float, 64> tmp{};
  add_metric(out, "kernel.fdct8x8_f32.ns", ns_per_call(blocks, [&] {
               double s = 0;
               for (const auto& blk : pix) {
                 k.fdct8x8_f32(blk.data(), tmp.data());
                 s += tmp[0];
               }
               return s;
             }), "ns");
  add_metric(out, "kernel.idct8x8_f32.ns", ns_per_call(blocks, [&] {
               double s = 0;
               for (const auto& blk : coef) {
                 k.idct8x8_f32(blk.data(), tmp.data());
                 s += tmp[0];
               }
               return s;
             }), "ns");
  std::array<std::int16_t, 64> lv{};
  add_metric(out, "kernel.quantize64.ns", ns_per_call(blocks, [&] {
               double s = 0;
               for (const auto& blk : coef) {
                 k.quantize64(blk.data(), steps.data(), lv.data());
                 s += lv[0];
               }
               return s;
             }), "ns");
  add_metric(out, "kernel.dequantize64.ns", ns_per_call(blocks, [&] {
               double s = 0;
               for (const auto& blk : levels) {
                 k.dequantize64(blk.data(), steps.data(), tmp.data());
                 s += tmp[0];
               }
               return s;
             }), "ns");

  // Filterbank: 64-sample windows hopping 32 samples through PCM.
  constexpr std::size_t kWindows = 256;
  const std::vector<double> pcm =
      audio::make_music(32 * kWindows + 64, 44100.0, in.scene_seed);
  std::vector<std::array<double, 32>> bands(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) k.fb_analyze(&pcm[w * 32], bands[w].data());
  std::array<double, 64> y64{};
  std::array<double, 32> b32{};
  add_metric(out, "kernel.fb_analyze.ns", ns_per_call(kWindows, [&] {
               double s = 0;
               for (std::size_t w = 0; w < kWindows; ++w) {
                 k.fb_analyze(&pcm[w * 32], b32.data());
                 s += b32[0];
               }
               return s;
             }), "ns");
  add_metric(out, "kernel.fb_synth.ns", ns_per_call(kWindows, [&] {
               double s = 0;
               for (const auto& bd : bands) {
                 k.fb_synth(bd.data(), y64.data());
                 s += y64[0];
               }
               return s;
             }), "ns");

  // Codec: mean per-frame time over a 16-frame GOP pair, median of trials.
  constexpr int kFrames = 16;
  video::EncoderConfig ec;
  ec.width = in.width;
  ec.height = in.height;
  ec.gop_size = 8;
  ec.qscale = 8;
  std::vector<video::Frame> frames;
  std::vector<std::vector<std::uint8_t>> coded;
  std::vector<double> render_ms, encode_ms, decode_ms;
  volatile std::size_t sink = 0;
  for (int t = 0; t < 3; ++t) {
    frames.clear();
    std::uint64_t b0 = now_ns();
    for (int i = 0; i < kFrames; ++i) {
      frames.push_back(video::SyntheticVideo::render(in.width, in.height, scene, i));
    }
    render_ms.push_back(seconds_between(b0, now_ns()) * 1e3 / kFrames);
    coded.clear();
    video::VideoEncoder enc(ec);
    b0 = now_ns();
    for (const video::Frame& f : frames) coded.push_back(enc.encode(f).bytes);
    encode_ms.push_back(seconds_between(b0, now_ns()) * 1e3 / kFrames);
    video::VideoDecoder dec;
    b0 = now_ns();
    for (const auto& c : coded) sink = sink + (dec.decode(c).is_ok() ? 1 : 0);
    decode_ms.push_back(seconds_between(b0, now_ns()) * 1e3 / kFrames);
  }
  add_metric(out, "codec.render_ms", median(render_ms), "ms");
  add_metric(out, "codec.encode_ms", median(encode_ms), "ms");
  add_metric(out, "codec.decode_ms", median(decode_ms), "ms");
}

}  // namespace mmsoc::bench
