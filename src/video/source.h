// Deterministic synthetic video generator.
//
// Substitute for real camera/broadcast content (see DESIGN.md §3): scenes
// are panned multi-octave value-noise textures with moving objects, which
// gives the motion estimator genuine translational motion to find, the DCT
// controllable spatial detail, and the content-analysis experiments exact
// ground truth (scene boundaries, black separators, per-segment
// saturation).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/gaussian.h"
#include "common/rng.h"
#include "video/frame.h"

namespace mmsoc::video {

/// Parameters of one synthetic scene.
struct SceneParams {
  int frames = 30;                   ///< scene length in frames
  double pan_x = 1.0;                ///< global pan, px/frame (luma)
  double pan_y = 0.0;
  double detail = 0.5;               ///< texture amplitude 0..1
  double brightness = 128.0;         ///< mean luma
  double saturation = 30.0;          ///< chroma amplitude (0 = B&W content)
  int num_objects = 2;               ///< independently moving rectangles
  double noise_sigma = 1.0;          ///< per-pixel sensor noise
  std::uint64_t seed = 1;            ///< texture/object layout seed
};

/// Pre-canned scene kinds used across tests and benches.
SceneParams scene_low_motion(std::uint64_t seed);
SceneParams scene_high_motion(std::uint64_t seed);
SceneParams scene_high_detail(std::uint64_t seed);
SceneParams scene_flat(std::uint64_t seed);

/// Streams frames of a scripted sequence of scenes, optionally separated
/// by runs of black frames (the program/commercial separator of §5).
class SyntheticVideo {
 public:
  SyntheticVideo(int width, int height, std::vector<SceneParams> scenes,
                 int black_separator_frames = 0);

  /// Next frame, or nullopt when the script is exhausted.
  std::optional<Frame> next();

  /// Total frames the script will produce.
  [[nodiscard]] int total_frames() const noexcept;

  /// Frame index of the start of each scene (after any separator),
  /// for ground-truth checks in the analysis experiments.
  [[nodiscard]] const std::vector<int>& scene_starts() const noexcept {
    return scene_starts_;
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }

  /// Render one frame of a scene directly (stateless utility): the luma
  /// of render_luma() plus half-resolution chroma.
  static Frame render(int width, int height, const SceneParams& scene,
                      int frame_index);

  /// Render only the luma of frame `frame_index` into `luma`, at the
  /// plane's size, overwriting every visible pixel. Lets a caller that
  /// has no use for chroma reuse one plane across frames.
  ///
  /// Rendering is bit-exact: noise lattices are tabulated per frame and
  /// per cell row, but every pixel keeps the arithmetic and evaluation
  /// order of the per-pixel definition, so output bytes depend only on
  /// (size, scene, frame_index). The sensor noise is one Gaussian stream
  /// per frame (Rng::next_gaussian's, in raster order), produced a row at
  /// a time by common::GaussianStream: its polar attempts are drawn in
  /// blocks, the rejection step is branch-free, and a row's transform is
  /// batched through a vector log. add_sensor_noise rounds each row and
  /// redoes it with the exact libm values when the guard band says the
  /// fast ones could round differently.
  static void render_luma(const SceneParams& scene, int frame_index,
                          Plane& luma);

 private:
  int width_;
  int height_;
  std::vector<SceneParams> scenes_;
  int separator_;
  std::vector<int> scene_starts_;
  std::size_t scene_idx_ = 0;
  int frame_in_scene_ = 0;
  int separator_left_ = 0;
};

/// One row of sensor-noised luma: out[x] = clamp_u8(int(v[x] + sigma * g
/// + 0.5)) for the next v.size() values g of `noise`, byte for byte as
/// with next_gaussian's values. The row is rounded from the stream's fast
/// values. A pixel whose sum lies within 1e-9 * (1 + |sigma|) of an
/// integer (the sum minus and plus that band truncate differently)
/// could round otherwise with the exact values, so its row is redone with
/// noise.exact(). Near 0, where both sides truncate to 0, nothing is redone.
void add_sensor_noise(std::span<const double> v, double sigma,
                      common::GaussianStream& noise, std::uint8_t* out);

}  // namespace mmsoc::video
