// Task-graph builders for the paper's applications.
//
// Each builder converts *measured* per-stage operation counts (StageOps /
// AudioStageOps collected by the real codecs in this repository) into an
// mpsoc::TaskGraph whose nodes are the boxes of Fig. 1 / Fig. 2, so the
// mapping experiments run on workloads with empirically grounded stage
// weights rather than guessed ones.
#pragma once

#include "audio/subband_codec.h"
#include "mpsoc/taskgraph.h"
#include "video/codec.h"

namespace mmsoc::core {

/// Operation-cost calibration: RISC-normalized ops per counted unit.
struct VideoCosts {
  double per_dct_block = 1024.0;   ///< 16 1-D DCTs x 8 MACs x 8 taps
  double per_sad_op = 1.0;         ///< abs-diff+accumulate
  double per_mc_pixel = 2.0;       ///< fetch + clamp/add
  double per_quant_coeff = 2.0;    ///< scale + round
  double per_vlc_symbol = 8.0;     ///< table lookup + bit pack

  /// RISC-normalized ops of `ops`: each Fig. 1 box's count times its
  /// weight (the IDCT weighs like the DCT), summed.
  [[nodiscard]] double weigh(const video::StageOps& ops) const noexcept;
};

/// Fig. 1 encoder as a task graph: MOTION ESTIMATOR -> MOTION COMPENSATED
/// PREDICTOR -> (residual) DCT -> QUANTIZER -> {VLC -> BUFFER, INVERSE DCT
/// -> reconstruction}, with the motion vectors coded by the VLC and the
/// reconstruction of frame i-1 fed back to the estimator and predictor of
/// frame i over delay-1 edges. Frame dimensions size the edges.
[[nodiscard]] mpsoc::TaskGraph video_encoder_graph(
    int width, int height, const video::StageOps& ops,
    const VideoCosts& costs = VideoCosts{});

/// The matching decoder graph (no motion estimator — the §2/§3 asymmetry).
[[nodiscard]] mpsoc::TaskGraph video_decoder_graph(
    int width, int height, const video::StageOps& ops,
    const VideoCosts& costs = VideoCosts{});

/// Symmetric videoconference terminal: encoder + decoder in one graph
/// (§2: "each terminal must both transmit and receive").
[[nodiscard]] mpsoc::TaskGraph videoconference_graph(
    int width, int height, const video::StageOps& encode_ops,
    const VideoCosts& costs = VideoCosts{});

/// Fig. 2 audio encoder graph: MAPPER -> QUANTIZER/CODER -> FRAME PACKER
/// with the PSYCHOACOUSTIC MODEL on a parallel branch into the quantizer.
[[nodiscard]] mpsoc::TaskGraph audio_encoder_graph(
    const audio::AudioStageOps& ops);

/// RPE-LTP speech codec graph (per 20 ms frame): LPC analysis ->
/// short-term filter -> LTP search -> RPE selection -> pack.
[[nodiscard]] mpsoc::TaskGraph gsm_codec_graph();

/// DVR record+analyze pipeline (§5): decode incoming broadcast, extract
/// frame features, run the commercial detector, write to disk.
[[nodiscard]] mpsoc::TaskGraph dvr_analysis_graph(
    int width, int height, const video::StageOps& decode_ops,
    const VideoCosts& costs = VideoCosts{});

/// Whole-device workloads for the E-DEV experiment: the primary
/// application of each device class.
[[nodiscard]] mpsoc::TaskGraph device_workload(
    int width, int height, const video::StageOps& encode_ops,
    const audio::AudioStageOps& audio_ops, std::uint8_t device_class_index);

}  // namespace mmsoc::core
