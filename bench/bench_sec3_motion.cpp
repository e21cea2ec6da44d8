// E-ME — §3 motion estimation: "Motion estimation/compensation greatly
// reduce the number of bits required to represent the video sequence."
// Sweep: no motion / full search / three-step / diamond. Reports
// bits/frame, PSNR, and SAD evaluations (the encoder-side cost knob).
#include "bench_util.h"

#include <cstdint>
#include <vector>

#include "video/codec.h"
#include "video/metrics.h"
#include "video/motion.h"
#include "video/source.h"

namespace {

using namespace mmsoc;

constexpr int kW = 128, kH = 128, kFrames = 10;

std::vector<video::Frame> frames_for_me() {
  std::vector<video::Frame> frames;
  auto scene = video::scene_high_motion(9);
  scene.detail = 0.8;
  for (int i = 0; i < kFrames; ++i)
    frames.push_back(video::SyntheticVideo::render(kW, kH, scene, i));
  return frames;
}

struct Row {
  const char* name;
  video::SearchAlgorithm algo;
};

void print_tables() {
  mmsoc::bench::banner("E-ME", "motion estimation algorithms (§3)");
  const auto frames = frames_for_me();
  const Row rows[] = {
      {"none (zero MV)", video::SearchAlgorithm::kNone},
      {"full search", video::SearchAlgorithm::kFullSearch},
      {"three-step", video::SearchAlgorithm::kThreeStep},
      {"diamond", video::SearchAlgorithm::kDiamond},
  };
  std::printf("%-16s %12s %10s %14s\n", "algorithm", "P bits/frame",
              "PSNR dB", "SAD ops/frame");
  mmsoc::bench::rule();
  for (const auto& row : rows) {
    video::EncoderConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.gop_size = 1000;  // one I then all P
    cfg.qscale = 8;
    cfg.search_range = 8;
    cfg.me_algo = row.algo;
    video::VideoEncoder enc(cfg);
    video::VideoDecoder dec;
    std::size_t p_bits = 0;
    int p_frames = 0;
    double psnr_sum = 0.0;
    std::uint64_t sad_ops = 0;
    for (const auto& f : frames) {
      const auto e = enc.encode(f);
      auto d = dec.decode(e.bytes);
      psnr_sum += video::psnr_luma(f, d.value());
      if (e.type == video::FrameType::kPredicted) {
        p_bits += e.bytes.size() * 8;
        sad_ops += e.ops.me_sad_ops;
        ++p_frames;
      }
    }
    std::printf("%-16s %12.0f %10.2f %14.3e\n", row.name,
                static_cast<double>(p_bits) / p_frames,
                psnr_sum / kFrames,
                static_cast<double>(sad_ops) / p_frames);
  }
  std::printf("\nShape to verify: any search slashes bits vs zero-MV; fast\n"
              "searches approach full-search bits at a fraction of the SADs.\n");
}

// One CIF frame searched against a reference that carries
// video::kReferenceBorder with its edges extended, as the Fig. 1 graph's
// motion estimator searches it.
void BM_EstimateFrame(benchmark::State& state) {
  constexpr int w = 352, h = 288;
  const auto algo = static_cast<video::SearchAlgorithm>(state.range(0));
  const auto scene = video::scene_high_motion(10);
  const auto cur = video::SyntheticVideo::render(w, h, scene, 4).y();
  std::vector<std::uint8_t> packed(static_cast<std::size_t>(w) * h);
  video::SyntheticVideo::render(w, h, scene, 3).y().copy_packed_to(packed.data());
  video::Plane ref(w, h, 0, video::kReferenceBorder);
  ref.copy_packed_from(packed.data(), packed.size());
  ref.extend_edges();
  for (auto _ : state) {
    benchmark::DoNotOptimize(video::estimate_frame(cur, ref, 8, algo));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimateFrame)
    ->Arg(static_cast<int>(video::SearchAlgorithm::kFullSearch))
    ->Arg(static_cast<int>(video::SearchAlgorithm::kThreeStep))
    ->Arg(static_cast<int>(video::SearchAlgorithm::kDiamond));

void BM_Sad16(benchmark::State& state) {
  const auto scene = video::scene_high_detail(11);
  const auto a = video::SyntheticVideo::render(64, 64, scene, 0).y();
  const auto b = video::SyntheticVideo::render(64, 64, scene, 1).y();
  for (auto _ : state) {
    benchmark::DoNotOptimize(video::sad16(a, b, 16, 16, 3, -2));
  }
}
BENCHMARK(BM_Sad16);

}  // namespace

MMSOC_BENCH_MAIN(print_tables)
