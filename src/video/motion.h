// Motion estimation and compensation — the "MOTION ESTIMATOR" and "MOTION
// COMPENSATED PREDICTOR" boxes of Fig. 1.
//
// "Motion estimation compares part of one frame to a reference frame and
// determines what motion would cause the selected part to appear in the
// reference frame. Motion compensation at the receiver then applies that
// motion vector to reconstruct the frame." (paper, §3)
//
// Three search strategies are provided because ME dominates encoder cost
// and is the main symmetric/asymmetric lever (§2): exhaustive full search,
// the classic three-step search, and diamond search. All minimize SAD over
// 16x16 macroblocks and report the number of SAD evaluations so benches
// can chart the cost/quality trade-off.
//
// A search scores one step's candidates per kernel call
// (dsp::KernelTable::sad16_candidates), which loads the current block
// once: a row of the full-search window (in chunks of 33 beyond range 16),
// the <= 8 points of a three-step step, or a large or small diamond. The
// selection then runs over the scores in scan order, so the vector, its
// SAD, the tie-break and the evaluation count are those of scoring the
// candidates one by one.
//
// Every window is read edge-clamped (Plane::at_clamped). When all of a
// step's windows lie inside the reference's edge-extended border
// (Plane::extend_edges) they are read in place, so a reference plane
// carrying kReferenceBorder serves a whole default-range search from its
// own rows; otherwise the step's windows are gathered clamped into
// scratch. Once a plane's edges are extended both give the same pixels,
// so results never depend on its border.
#pragma once

#include <cstdint>
#include <vector>

#include "video/frame.h"

namespace mmsoc::video {

inline constexpr int kMacroblockSize = 16;

/// The border the encoder's reference planes carry: every window of a
/// search range up to 16 pixels (twice EncoderConfig's default of 8) is
/// read in place. A larger range still works, through the clamped gather.
inline constexpr int kReferenceBorder = 16;

/// A motion vector in integer luma pixels.
struct MotionVector {
  int dx = 0;
  int dy = 0;
  bool operator==(const MotionVector&) const = default;
};

enum class SearchAlgorithm { kFullSearch, kThreeStep, kDiamond, kNone };

/// Result of estimating one macroblock.
struct MotionResult {
  MotionVector mv;
  std::uint64_t sad = 0;        ///< SAD at the chosen vector
  std::uint32_t evaluations = 0; ///< number of candidate SADs computed
};

/// Sum of absolute differences between the 16x16 block at (bx, by) in
/// `cur` and the block at (bx+dx, by+dy) in `ref` (edge-clamped).
[[nodiscard]] std::uint64_t sad16(const Plane& cur, const Plane& ref, int bx,
                                  int by, int dx, int dy) noexcept;

/// Estimate the motion of the macroblock whose top-left luma corner is
/// (bx, by); search range is +/-`range` pixels in each axis.
[[nodiscard]] MotionResult estimate_block(const Plane& cur, const Plane& ref,
                                          int bx, int by, int range,
                                          SearchAlgorithm algo) noexcept;

/// Motion field for a whole frame (one vector per macroblock, raster order).
struct MotionField {
  int blocks_x = 0;
  int blocks_y = 0;
  std::vector<MotionResult> blocks;
  [[nodiscard]] std::uint64_t total_sad() const noexcept;
  [[nodiscard]] std::uint64_t total_evaluations() const noexcept;
};

/// Estimate motion for every macroblock of `cur` against `ref`.
[[nodiscard]] MotionField estimate_frame(const Plane& cur, const Plane& ref,
                                         int range, SearchAlgorithm algo);

/// Motion-compensated prediction: write the luma prediction from `ref`
/// and the motion field into `out`, a caller-owned plane of `ref`'s size.
/// Only the pixels the field's macroblocks cover are written.
void compensate(const Plane& ref, const MotionField& field, Plane& out);

/// Chroma compensation with luma vectors halved toward zero (4:2:0), on
/// 8x8 blocks; `out` as for compensate.
void compensate_chroma(const Plane& ref, const MotionField& field, Plane& out);

}  // namespace mmsoc::video
