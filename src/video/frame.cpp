#include "video/frame.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace mmsoc::video {

std::uint8_t Plane::at_clamped(int x, int y) const noexcept {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y);
}

void Plane::copy_packed_to(std::uint8_t* dst) const noexcept {
  for (int y = 0; y < height_; ++y) {
    std::memcpy(dst, row(y), static_cast<std::size_t>(width_));
    dst += width_;
  }
}

void Plane::copy_packed_from(const std::uint8_t* src, std::size_t n) noexcept {
  const std::size_t w = static_cast<std::size_t>(width_);
  for (int y = 0; y < height_ && n > 0; ++y) {
    const std::size_t take = std::min(w, n);
    std::memcpy(row(y), src, take);
    src += take;
    n -= take;
  }
}

void Plane::fill(std::uint8_t v) noexcept {
  std::fill(pixels_.begin(), pixels_.end(), v);
}

void Plane::extend_edges() noexcept {
  if (border_ == 0 || width_ == 0 || height_ == 0) return;
  const auto b = static_cast<std::size_t>(border_);
  for (int y = 0; y < height_; ++y) {
    std::uint8_t* r = row(y);
    std::memset(r - b, r[0], b);
    std::memset(r + width_, r[width_ - 1], b);
  }
  const std::size_t span = static_cast<std::size_t>(width_) + 2 * b;
  for (int k = 1; k <= border_; ++k) {
    std::memcpy(row(-k) - b, row(0) - b, span);
    std::memcpy(row(height_ - 1 + k) - b, row(height_ - 1) - b, span);
  }
}

double Plane::mean() const noexcept {
  const std::size_t count = static_cast<std::size_t>(width_) * height_;
  if (count == 0) return 0.0;
  double s = 0.0;
  for (int y = 0; y < height_; ++y) {
    for (const auto p : row_span(y)) s += p;
  }
  return s / static_cast<double>(count);
}

double Plane::variance() const noexcept {
  const std::size_t count = static_cast<std::size_t>(width_) * height_;
  if (count == 0) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (int y = 0; y < height_; ++y) {
    for (const auto p : row_span(y)) s += (p - m) * (p - m);
  }
  return s / static_cast<double>(count);
}

bool Plane::operator==(const Plane& other) const noexcept {
  if (width_ != other.width_ || height_ != other.height_) return false;
  for (int y = 0; y < height_; ++y) {
    if (std::memcmp(row(y), other.row(y),
                    static_cast<std::size_t>(width_)) != 0) {
      return false;
    }
  }
  return true;
}

Frame Frame::black(int width, int height) {
  Frame f(width, height);
  f.y().fill(16);
  return f;
}

double Frame::mean_saturation() const noexcept {
  const std::size_t count =
      static_cast<std::size_t>(cb_.width()) * cb_.height();
  if (count == 0) return 0.0;
  double s = 0.0;
  for (int y = 0; y < cb_.height(); ++y) {
    const auto cb = cb_.row_span(y);
    const auto cr = cr_.row_span(y);
    for (std::size_t i = 0; i < cb.size(); ++i) {
      const double dcb = static_cast<double>(cb[i]) - 128.0;
      const double dcr = static_cast<double>(cr[i]) - 128.0;
      s += std::sqrt(dcb * dcb + dcr * dcr);
    }
  }
  return s / static_cast<double>(count);
}

}  // namespace mmsoc::video
