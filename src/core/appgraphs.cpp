#include "core/appgraphs.h"

#include <cmath>

namespace mmsoc::core {

using mpsoc::PeKind;
using mpsoc::Task;
using mpsoc::TaskGraph;
using mpsoc::TaskId;

namespace {

// Affinity presets. Speedups relative to scalar RISC execution.
Task make_task(const char* name, double ops) {
  Task t;
  t.name = name;
  t.work_ops = ops;
  return t;
}

Task dsp_friendly(const char* name, double ops, double dsp_speedup) {
  Task t = make_task(name, ops);
  t.affinity[PeKind::kDsp] = dsp_speedup;
  return t;
}

Task accelerated(const char* name, double ops, double dsp_speedup,
                 const char* tag, double accel_speedup) {
  Task t = dsp_friendly(name, ops, dsp_speedup);
  t.accel_tag = tag;
  t.affinity[PeKind::kAccelerator] = accel_speedup;
  return t;
}

}  // namespace

double VideoCosts::weigh(const video::StageOps& ops) const noexcept {
  return static_cast<double>(ops.me_sad_ops) * per_sad_op +
         static_cast<double>(ops.mc_pixels) * per_mc_pixel +
         static_cast<double>(ops.dct_blocks + ops.idct_blocks) * per_dct_block +
         static_cast<double>(ops.quant_coeffs) * per_quant_coeff +
         static_cast<double>(ops.vlc_symbols) * per_vlc_symbol;
}

TaskGraph video_encoder_graph(int width, int height,
                              const video::StageOps& ops,
                              const VideoCosts& costs) {
  TaskGraph g("video-encoder");
  const double luma_bytes = static_cast<double>(width) * height;
  const double frame_bytes = luma_bytes * 1.5;  // 4:2:0

  // Fig. 1 boxes. Data-parallel transform/pixel kernels vectorize well on
  // DSPs; entropy coding is branchy and stays near 1x.
  const TaskId capture = g.add_task(dsp_friendly("capture", luma_bytes * 0.5, 2.0));
  const TaskId me = g.add_task(accelerated(
      "motion-estimator", static_cast<double>(ops.me_sad_ops) * costs.per_sad_op,
      4.0, "me", 16.0));
  const TaskId mc = g.add_task(dsp_friendly(
      "mc-predictor", static_cast<double>(ops.mc_pixels) * costs.per_mc_pixel, 3.0));
  const TaskId dct = g.add_task(accelerated(
      "dct", static_cast<double>(ops.dct_blocks) * costs.per_dct_block, 4.0,
      "dct", 12.0));
  const TaskId quant = g.add_task(dsp_friendly(
      "quantizer", static_cast<double>(ops.quant_coeffs) * costs.per_quant_coeff,
      4.0));
  const TaskId vlc = g.add_task(make_task(
      "vlc", static_cast<double>(ops.vlc_symbols) * costs.per_vlc_symbol));
  const TaskId idct = g.add_task(accelerated(
      "inverse-dct", static_cast<double>(ops.idct_blocks) * costs.per_dct_block,
      4.0, "dct", 12.0));
  const TaskId recon = g.add_task(dsp_friendly("reconstruct", luma_bytes, 3.0));
  const TaskId buffer = g.add_task(make_task("rate-buffer", 2000.0));

  const double mv_bytes = 2.0 * (width / 16.0) * (height / 16.0);

  // Forward path.
  (void)g.add_edge(capture, me, frame_bytes);
  (void)g.add_edge(capture, mc, frame_bytes);
  (void)g.add_edge(me, mc, mv_bytes);
  (void)g.add_edge(mc, dct, frame_bytes);
  (void)g.add_edge(dct, quant, frame_bytes * 2.0);   // 16-bit coefficients
  (void)g.add_edge(quant, vlc, frame_bytes * 2.0);
  (void)g.add_edge(vlc, buffer, frame_bytes * 0.1);  // compressed stream
  // Reconstruction loop.
  (void)g.add_edge(quant, idct, frame_bytes * 2.0);
  (void)g.add_edge(idct, recon, frame_bytes);
  (void)g.add_edge(mc, recon, frame_bytes);
  (void)g.add_edge(me, vlc, mv_bytes);  // motion vectors are coded
  // Loop-carried: frame i searches and predicts against the
  // reconstruction of frame i-1.
  (void)g.add_edge(recon, me, frame_bytes, /*delay=*/1);
  (void)g.add_edge(recon, mc, frame_bytes, /*delay=*/1);
  return g;
}

TaskGraph video_decoder_graph(int width, int height,
                              const video::StageOps& ops,
                              const VideoCosts& costs) {
  TaskGraph g("video-decoder");
  const double luma_bytes = static_cast<double>(width) * height;
  const double frame_bytes = luma_bytes * 1.5;

  const TaskId vld = g.add_task(make_task(
      "vlc-decode", static_cast<double>(ops.vlc_symbols) * costs.per_vlc_symbol));
  const TaskId dequant = g.add_task(dsp_friendly(
      "dequantizer", static_cast<double>(ops.quant_coeffs) * costs.per_quant_coeff,
      4.0));
  const TaskId idct = g.add_task(accelerated(
      "inverse-dct", static_cast<double>(ops.idct_blocks) * costs.per_dct_block,
      4.0, "dct", 12.0));
  const TaskId mc = g.add_task(dsp_friendly(
      "mc-predictor", static_cast<double>(ops.mc_pixels) * costs.per_mc_pixel, 3.0));
  const TaskId recon = g.add_task(dsp_friendly("reconstruct", luma_bytes, 3.0));
  const TaskId display = g.add_task(dsp_friendly("display", luma_bytes * 0.5, 2.0));

  (void)g.add_edge(vld, dequant, frame_bytes * 2.0);
  (void)g.add_edge(dequant, idct, frame_bytes * 2.0);
  (void)g.add_edge(idct, recon, frame_bytes);
  (void)g.add_edge(mc, recon, frame_bytes);
  (void)g.add_edge(vld, mc, 2.0 * (width / 16.0) * (height / 16.0));
  (void)g.add_edge(recon, display, frame_bytes);
  return g;
}

TaskGraph videoconference_graph(int width, int height,
                                const video::StageOps& encode_ops,
                                const VideoCosts& costs) {
  TaskGraph g("videoconference-terminal");
  // Compose encoder and decoder into one graph by re-adding their tasks.
  const TaskGraph enc = video_encoder_graph(width, height, encode_ops, costs);
  const TaskGraph dec = video_decoder_graph(width, height, encode_ops, costs);
  std::vector<TaskId> enc_map, dec_map;
  for (TaskId t = 0; t < enc.task_count(); ++t) {
    Task task = enc.task(t);
    task.name = "tx-" + task.name;
    enc_map.push_back(g.add_task(std::move(task)));
  }
  for (TaskId t = 0; t < dec.task_count(); ++t) {
    Task task = dec.task(t);
    task.name = "rx-" + task.name;
    dec_map.push_back(g.add_task(std::move(task)));
  }
  for (const auto& e : enc.edges()) {
    (void)g.add_edge(enc_map[e.src], enc_map[e.dst], e.bytes, e.delay);
  }
  for (const auto& e : dec.edges()) {
    (void)g.add_edge(dec_map[e.src], dec_map[e.dst], e.bytes, e.delay);
  }
  return g;
}

TaskGraph audio_encoder_graph(const audio::AudioStageOps& ops) {
  TaskGraph g("audio-encoder");
  const double granule_bytes = audio::kGranuleSamples * 2.0;

  const TaskId input = g.add_task(make_task("pcm-input", 500.0));
  const TaskId mapper = g.add_task(dsp_friendly(
      "mapper-filterbank", static_cast<double>(ops.mapper_macs), 6.0));
  const TaskId psycho = g.add_task(dsp_friendly(
      "psychoacoustic-model", static_cast<double>(ops.psycho_ops), 4.0));
  const TaskId quant = g.add_task(dsp_friendly(
      "quantizer-coder", static_cast<double>(ops.quant_ops) * 6.0, 3.0));
  const TaskId packer = g.add_task(make_task(
      "frame-packer", static_cast<double>(ops.packer_bits) * 0.5));

  (void)g.add_edge(input, mapper, granule_bytes);
  (void)g.add_edge(input, psycho, granule_bytes);
  (void)g.add_edge(mapper, quant, audio::kSubbands * audio::kBlocksPerGranule * 8.0);
  (void)g.add_edge(psycho, quant, audio::kSubbands * 8.0);
  (void)g.add_edge(quant, packer, static_cast<double>(ops.packer_bits) / 8.0);
  return g;
}

TaskGraph gsm_codec_graph() {
  TaskGraph g("gsm-rpe-ltp");
  // Analytic per-frame (160 samples) op counts for the 06.10 structure.
  const TaskId pre = g.add_task(dsp_friendly("preprocess", 160.0 * 4, 4.0));
  const TaskId lpc = g.add_task(dsp_friendly(
      "lpc-analysis", 160.0 * 9 + 8.0 * 8 * 10, 6.0));  // autocorr + levinson
  const TaskId stf = g.add_task(dsp_friendly("short-term-filter", 160.0 * 8 * 2, 6.0));
  const TaskId ltp = g.add_task(dsp_friendly(
      "ltp-search", 4.0 * 81 * 40 * 2, 6.0));  // 4 subframes x 81 lags x 40 MACs
  const TaskId rpe = g.add_task(dsp_friendly("rpe-select", 4.0 * (3 * 13 + 13 * 4), 4.0));
  const TaskId pack = g.add_task(make_task("bit-pack", 268.0 * 2));

  (void)g.add_edge(pre, lpc, 320.0);
  (void)g.add_edge(pre, stf, 320.0);
  (void)g.add_edge(lpc, stf, 8.0 * 2);
  (void)g.add_edge(stf, ltp, 320.0);
  (void)g.add_edge(ltp, rpe, 320.0);
  (void)g.add_edge(rpe, pack, 80.0);
  (void)g.add_edge(lpc, pack, 8.0);
  return g;
}

TaskGraph dvr_analysis_graph(int width, int height,
                             const video::StageOps& decode_ops,
                             const VideoCosts& costs) {
  TaskGraph g("dvr-record-analyze");
  const TaskGraph dec = video_decoder_graph(width, height, decode_ops, costs);
  std::vector<TaskId> dec_map;
  for (TaskId t = 0; t < dec.task_count(); ++t) {
    dec_map.push_back(g.add_task(dec.task(t)));
  }
  for (const auto& e : dec.edges()) {
    (void)g.add_edge(dec_map[e.src], dec_map[e.dst], e.bytes, e.delay);
  }
  const double luma_bytes = static_cast<double>(width) * height;
  // §5 analysis stages: per-pixel features then a tiny classifier.
  const TaskId features = g.add_task(dsp_friendly("frame-features", luma_bytes * 3.0, 4.0));
  const TaskId detector = g.add_task(make_task("commercial-detector", 5000.0));
  const TaskId disk = g.add_task(make_task("disk-writer", luma_bytes * 0.2));
  // recon task feeds analysis; display index is last in decoder graph.
  const TaskId recon = dec_map[4];
  (void)g.add_edge(recon, features, luma_bytes * 1.5);
  (void)g.add_edge(features, detector, 64.0);
  (void)g.add_edge(recon, disk, luma_bytes * 0.15);  // compressed stream out
  (void)g.add_edge(detector, disk, 16.0);
  return g;
}

TaskGraph device_workload(int width, int height,
                          const video::StageOps& encode_ops,
                          const audio::AudioStageOps& audio_ops,
                          std::uint8_t device_class_index) {
  switch (device_class_index) {
    case 0:  // cell phone: symmetric videoconference
      return videoconference_graph(width, height, encode_ops);
    case 1:  // audio player: subband decode ~ encoder graph without psycho;
             // use the encoder graph as a conservative stand-in.
      return audio_encoder_graph(audio_ops);
    case 2:  // set-top box: decode only
      return video_decoder_graph(width, height, encode_ops);
    case 3:  // DVR: decode + analysis + disk
      return dvr_analysis_graph(width, height, encode_ops);
    case 4:  // camera: encode only
    default:
      return video_encoder_graph(width, height, encode_ops);
  }
}

}  // namespace mmsoc::core
