// Deterministic synthetic video generator.
//
// Substitute for real camera/broadcast content (see DESIGN.md §3): scenes
// are panned multi-octave value-noise textures with moving objects, which
// gives the motion estimator genuine translational motion to find, the DCT
// controllable spatial detail, and the content-analysis experiments exact
// ground truth (scene boundaries, black separators, per-segment
// saturation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

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
  /// per cell row, object columns are resolved once per frame as spans,
  /// but every pixel keeps the arithmetic and evaluation order of the
  /// per-pixel definition, so output bytes depend only on (size, scene,
  /// frame_index), at every SIMD level. The sensor noise is stateless:
  /// frame f has the key common::mix64(seed ^ (0xABCD + f * 0x10001)),
  /// and pixel (x, y) of a W-wide plane becomes clamp_u8(int((v + sigma *
  /// g) + 0.5)), g the sensor_noise_table() entry indexed by the top 12
  /// bits of mix64(key + y * W + x) (the dispatched kernel
  /// dsp::KernelTable::sensor_noise_row, one call per row). No pixel
  /// depends on another's draw. Builds a LumaRenderer per call; a caller
  /// that renders many frames of one scene keeps its own.
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

/// Entries of the sensor-noise table.
inline constexpr std::size_t kSensorNoiseTableSize = 4096;

/// The sensor-noise table: the standard normal quantile at each bin
/// midpoint, Phi^-1((i + 0.5) / 4096), rounded to a multiple of 2^-20 so
/// that the host libm's last-ulp differences cannot reach it (the nearest
/// entry lies 1.8e-4 grid steps from a rounding tie). Symmetric, so its
/// mean is exactly 0. Built once, on first use.
std::span<const double, kSensorNoiseTableSize> sensor_noise_table();

/// Renders the luma of one scene at one plane size, frame after frame.
/// What every frame needs is built once, here: the object layout, the
/// noise octaves' per-column tables and lattice rows, and the row buffer.
/// render() then allocates nothing, which is what a capture stage that
/// renders every frame of a session wants. SyntheticVideo::render_luma is
/// one renderer used once, so both give the same bytes.
class LumaRenderer {
 public:
  LumaRenderer(const SceneParams& scene, int width, int height);
  ~LumaRenderer();
  LumaRenderer(LumaRenderer&&) noexcept;
  LumaRenderer& operator=(LumaRenderer&&) noexcept;

  /// Render frame `frame_index` into `luma`, which must have the
  /// renderer's size (std::invalid_argument otherwise).
  void render(int frame_index, Plane& luma);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace mmsoc::video
