// Video frames in YCbCr 4:2:0 — the working format of every consumer
// video codec the paper discusses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/align.h"

namespace mmsoc::video {

/// A single 8-bit image plane with edge-clamped sampling.
///
/// Storage is SIMD-friendly: row 0 starts on a 64-byte boundary and the
/// stride is a multiple of 64 (stride() >= width()), so every row starts
/// cache-line aligned. Padding bytes keep the constructor fill value and
/// are never part of the image; use the packed copy helpers to move the
/// visible width*height pixels in and out of contiguous buffers.
///
/// Border: a plane built with `border` b > 0 also stores b pixels of
/// margin on every side, so row(y) + x is addressable for x and y in
/// [-b, size + b). The margin holds the edge-clamped image (at_clamped's
/// values) only once extend_edges() has run after the last write to the
/// visible pixels; whoever fills a reference plane calls it, and motion
/// search and compensation then read any window inside the margin in
/// place (video/motion.h). Left of each row the margin is rounded up to
/// 64 bytes, which keeps row 0 aligned.
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height, std::uint8_t fill = 0, int border = 0)
      : width_(width), height_(height), border_(border),
        stride_(align_row(align_row(border) + width + border)),
        origin_(static_cast<std::size_t>(border) * stride_ +
                align_row(border)),
        pixels_(static_cast<std::size_t>(stride_) * (height + 2 * border),
                fill) {}

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  /// Bytes between the starts of consecutive rows (>= width).
  [[nodiscard]] int stride() const noexcept { return stride_; }
  /// Margin pixels stored on every side (0: none).
  [[nodiscard]] int border() const noexcept { return border_; }

  [[nodiscard]] std::uint8_t at(int x, int y) const noexcept {
    return row(y)[x];
  }
  void set(int x, int y, std::uint8_t v) noexcept { row(y)[x] = v; }

  /// Edge-clamped read: out-of-bounds coordinates are clamped into range,
  /// the standard padding convention for motion search at frame borders.
  [[nodiscard]] std::uint8_t at_clamped(int x, int y) const noexcept;

  /// Pointer to the first visible pixel of row `y` (64-byte aligned);
  /// y may reach into the border.
  [[nodiscard]] const std::uint8_t* row(int y) const noexcept {
    return pixels_.data() + origin_ + static_cast<std::ptrdiff_t>(y) * stride_;
  }
  [[nodiscard]] std::uint8_t* row(int y) noexcept {
    return pixels_.data() + origin_ + static_cast<std::ptrdiff_t>(y) * stride_;
  }

  /// The `width()` visible pixels of row `y`, without padding.
  [[nodiscard]] std::span<const std::uint8_t> row_span(int y) const noexcept {
    return {row(y), static_cast<std::size_t>(width_)};
  }
  [[nodiscard]] std::span<std::uint8_t> row_span(int y) noexcept {
    return {row(y), static_cast<std::size_t>(width_)};
  }

  /// Copy the visible pixels into `dst` packed row-major (width*height
  /// bytes, no stride padding).
  void copy_packed_to(std::uint8_t* dst) const noexcept;

  /// Fill the visible pixels from a packed row-major buffer of `n` bytes;
  /// copies min(n, width*height) bytes, leaving any remainder untouched.
  void copy_packed_from(const std::uint8_t* src, std::size_t n) noexcept;

  /// Set every byte of the buffer, padding and border included.
  void fill(std::uint8_t v) noexcept;

  /// Replicate the edge pixels into the border, so each border byte
  /// equals at_clamped() of its coordinates. No-op without a border.
  void extend_edges() noexcept;

  /// Mean pixel value (0 for empty planes).
  [[nodiscard]] double mean() const noexcept;

  /// Population variance of pixel values.
  [[nodiscard]] double variance() const noexcept;

  /// Equality over dimensions and visible pixels (padding and border
  /// ignored).
  bool operator==(const Plane& other) const noexcept;

 private:
  static int align_row(int bytes) noexcept {
    return static_cast<int>(
        (static_cast<unsigned>(bytes) + common::kCacheLineAlign - 1) &
        ~(common::kCacheLineAlign - 1));
  }

  int width_ = 0;
  int height_ = 0;
  int border_ = 0;
  int stride_ = 0;
  std::size_t origin_ = 0;  ///< offset of row 0's first visible pixel
  std::vector<std::uint8_t,
              common::AlignedAllocator<std::uint8_t, common::kCacheLineAlign>>
      pixels_;
};

/// YCbCr 4:2:0 frame: full-resolution luma, half-resolution chroma.
/// Dimensions must be multiples of 16 (one macroblock) for codec use.
/// `border` gives every plane that Plane border (reference frames).
class Frame {
 public:
  Frame() = default;
  Frame(int width, int height, int border = 0)
      : y_(width, height, 16, border), cb_(width / 2, height / 2, 128, border),
        cr_(width / 2, height / 2, 128, border) {}

  [[nodiscard]] int width() const noexcept { return y_.width(); }
  [[nodiscard]] int height() const noexcept { return y_.height(); }

  [[nodiscard]] const Plane& y() const noexcept { return y_; }
  [[nodiscard]] Plane& y() noexcept { return y_; }
  [[nodiscard]] const Plane& cb() const noexcept { return cb_; }
  [[nodiscard]] Plane& cb() noexcept { return cb_; }
  [[nodiscard]] const Plane& cr() const noexcept { return cr_; }
  [[nodiscard]] Plane& cr() noexcept { return cr_; }

  /// A fully black frame (Y=16, Cb=Cr=128 — studio-swing black), as used
  /// between programs and commercials (paper, Section 5).
  static Frame black(int width, int height);

  /// Mean chroma saturation: average distance of (Cb, Cr) from neutral 128.
  /// Black-and-white content has near-zero saturation — the color-burst
  /// commercial-detection cue (paper, Section 5).
  [[nodiscard]] double mean_saturation() const noexcept;

  bool operator==(const Frame&) const = default;

 private:
  Plane y_, cb_, cr_;
};

}  // namespace mmsoc::video
