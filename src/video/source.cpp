#include "video/source.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/mathutil.h"
#include "dsp/dispatch.h"

namespace mmsoc::video {
namespace {

// Deterministic pseudo-random value of lattice point (xi, yi).
double lattice_value(std::uint64_t seed, int xi, int yi) noexcept {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(xi)) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(yi)) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

// One value-noise octave sampled on a pixel raster whose world position
// is (step * x + ox, step * y + oy). Hash-based value noise: a
// deterministic pseudo-random value per lattice point, bilinearly
// interpolated with smoothstep weights. The per-column cell index and
// weight are tabulated once per frame, and the two lattice rows around a
// raster row, already interpolated along x, are rebuilt only when the
// row enters a new cell row; entering the next one reuses the old bottom
// row as the new top. Every sample keeps the expressions and evaluation
// order of a direct per-pixel evaluation, so it is bit-exact. The
// buffers are reserved once, for any ox, so a frame allocates nothing.
class NoiseOctave {
 public:
  NoiseOctave(std::uint64_t seed, double cell, int width, double step)
      : seed_(seed), cell_(cell), step_(step),
        x0_(static_cast<std::size_t>(width)), sx_(x0_.size()),
        a_(x0_.size()), b_(x0_.size()) {
    // The cell span of a raster row: floor(gx) grows by at most
    // step * (width - 1) / cell + 1 across it, plus the right
    // neighbour's cell and a margin for rounding in gx. Reserving it
    // here keeps start_frame's resize from allocating.
    const std::size_t span =
        width > 0 ? static_cast<std::size_t>(step * (width - 1) / cell) + 4 : 0;
    top_.reserve(span);
    bottom_.reserve(span);
  }

  /// Pans the raster to world x offset `ox` for a new frame.
  void start_frame(double ox) {
    for (std::size_t x = 0; x < x0_.size(); ++x) {
      const double gx = (step_ * static_cast<int>(x) + ox) / cell_;
      x0_[x] = static_cast<int>(std::floor(gx));
      const double fx = gx - x0_[x];
      sx_[x] = fx * fx * (3.0 - 2.0 * fx);
    }
    // gx grows with x, so the cells span [x0_.front(), x0_.back() + 1].
    const std::size_t cells =
        x0_.empty() ? 0
                    : static_cast<std::size_t>(x0_.back() - x0_.front()) + 2;
    top_.resize(cells);
    bottom_.resize(cells);
    primed_ = false;
  }

  /// Position on the raster row at world y `wy`.
  void seek_row(double wy) {
    const double gy = wy / cell_;
    const int y0 = static_cast<int>(std::floor(gy));
    const double fy = gy - y0;
    sy_ = fy * fy * (3.0 - 2.0 * fy);
    if (primed_ && y0 == y0_) return;
    if (primed_ && y0 == y0_ + 1) {
      std::swap(top_, bottom_);
      std::swap(a_, b_);
    } else {
      fill_row(y0, top_, a_);
    }
    primed_ = true;
    y0_ = y0;
    fill_row(y0 + 1, bottom_, b_);
  }

  /// Noise value in [0, 1) at column `x` of the current row.
  [[nodiscard]] double at(std::size_t x) const noexcept {
    return common::lerp(a_[x], b_[x], sy_);
  }

 private:
  // Lattice row `yi` into `lattice`, interpolated along x into `row`.
  void fill_row(int yi, std::vector<double>& lattice, std::vector<double>& row) {
    const int base = x0_.empty() ? 0 : x0_.front();
    for (std::size_t i = 0; i < lattice.size(); ++i) {
      lattice[i] = lattice_value(seed_, base + static_cast<int>(i), yi);
    }
    for (std::size_t x = 0; x < x0_.size(); ++x) {
      const auto i = static_cast<std::size_t>(x0_[x] - base);
      row[x] = common::lerp(lattice[i], lattice[i + 1], sx_[x]);
    }
  }

  std::uint64_t seed_;
  double cell_;
  double step_;
  std::vector<int> x0_;        // cell index per column
  std::vector<double> sx_;     // smoothstep weight per column
  std::vector<double> a_, b_;  // top_/bottom_ interpolated per column
  std::vector<double> top_;    // lattice values of cell row y0_
  std::vector<double> bottom_; // lattice values of cell row y0_ + 1
  double sy_ = 0.0;
  int y0_ = 0;
  bool primed_ = false;
};

struct ObjectSpec {
  double x0, y0;      // initial position
  double vx, vy;      // velocity px/frame
  int w, h;           // size
  double luma_delta;  // brightness offset of the object
};

std::vector<ObjectSpec> make_objects(const SceneParams& p, int width,
                                     int height) {
  common::Rng rng(p.seed * 0x5851F42D4C957F2Dull + 7);
  std::vector<ObjectSpec> objs;
  objs.reserve(static_cast<std::size_t>(p.num_objects));
  for (int i = 0; i < p.num_objects; ++i) {
    ObjectSpec o;
    o.w = static_cast<int>(rng.next_in(width / 16, width / 6));
    o.h = static_cast<int>(rng.next_in(height / 16, height / 6));
    o.x0 = rng.next_double_in(0, width);
    o.y0 = rng.next_double_in(0, height);
    o.vx = rng.next_double_in(-2.0, 2.0) * (1.0 + std::abs(p.pan_x));
    o.vy = rng.next_double_in(-1.5, 1.5) * (1.0 + std::abs(p.pan_y));
    o.luma_delta = rng.next_double_in(-70.0, 70.0);
    objs.push_back(o);
  }
  return objs;
}

// Phi^-1(p) for p in (0, 0.5): Abramowitz and Stegun 26.2.23 (error
// below 4.5e-4), then three Halley steps on Phi(x) = erfc(-x / sqrt 2) / 2,
// each of which cubes the error.
double lower_normal_quantile(double p) {
  const double t = std::sqrt(-2.0 * std::log(p));
  double x = -(t - (2.515517 + t * (0.802853 + t * 0.010328)) /
                       (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))));
  for (int k = 0; k < 3; ++k) {
    const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
    const double u = e * std::sqrt(2.0 * common::kPi) * std::exp(0.5 * x * x);
    x -= u / (1.0 + 0.5 * x * u);
  }
  return x;
}

std::array<double, kSensorNoiseTableSize> build_sensor_noise_table() {
  constexpr std::size_t n = kSensorNoiseTableSize;
  std::array<double, n> table{};
  for (std::size_t i = 0; i < n / 2; ++i) {
    const double q = lower_normal_quantile((static_cast<double>(i) + 0.5) / n);
    table[i] = std::round(q * 0x1.0p20) * 0x1.0p-20;
    table[n - 1 - i] = -table[i];
  }
  return table;
}

}  // namespace

SceneParams scene_low_motion(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 0.5;
  p.pan_y = 0.0;
  p.detail = 0.4;
  p.num_objects = 1;
  p.seed = seed;
  return p;
}

SceneParams scene_high_motion(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 6.0;
  p.pan_y = 2.5;
  p.detail = 0.5;
  p.num_objects = 4;
  p.seed = seed;
  return p;
}

SceneParams scene_high_detail(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 1.0;
  p.detail = 1.0;
  p.num_objects = 3;
  p.seed = seed;
  return p;
}

SceneParams scene_flat(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 0.0;
  p.detail = 0.05;
  p.num_objects = 0;
  p.noise_sigma = 0.3;
  p.seed = seed;
  return p;
}

namespace {

// An object placed for one frame: the rows it covers are tested per row,
// its columns once per frame as the span [begin, end).
struct PlacedObject {
  double top;
  int h;
  int begin, end;
  double luma_delta;
};

// First column x in [0, width] whose offset x - left satisfies `past`. The
// offset never decreases as x grows, and `past` is false up to some
// offset and true after it, so a binary search over the exact test finds
// the boundary.
template <typename Past>
int first_column(int width, double left, Past past) {
  int lo = 0, hi = width;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (past(mid - left)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

struct LumaRenderer::State {
  State(const SceneParams& scene, int width, int height)
      : scene(scene), width(width), height(height),
        objects(make_objects(scene, width, height)),
        coarse(scene.seed, 24.0, width, 1.0),
        fine(scene.seed + 1, 5.0, width, 1.0),
        v(static_cast<std::size_t>(width)) {
    placed.reserve(objects.size());
  }

  SceneParams scene;
  int width, height;
  std::vector<ObjectSpec> objects;
  std::vector<PlacedObject> placed;
  NoiseOctave coarse, fine;
  std::vector<double> v;  // one row before sensor noise
};

LumaRenderer::LumaRenderer(const SceneParams& scene, int width, int height)
    : state_(std::make_unique<State>(scene, width, height)) {}

LumaRenderer::~LumaRenderer() = default;
LumaRenderer::LumaRenderer(LumaRenderer&&) noexcept = default;
LumaRenderer& LumaRenderer::operator=(LumaRenderer&&) noexcept = default;

void LumaRenderer::render(int frame_index, Plane& luma) {
  State& st = *state_;
  const SceneParams& scene = st.scene;
  const int width = st.width;
  const int height = st.height;
  if (luma.width() != width || luma.height() != height) {
    throw std::invalid_argument("LumaRenderer: plane size differs from the renderer's");
  }
  const double ox = scene.pan_x * frame_index;
  const double oy = scene.pan_y * frame_index;
  const std::uint64_t noise_key = common::mix64(
      scene.seed ^ (0xABCDull + static_cast<std::uint64_t>(frame_index) * 0x10001ull));

  // Objects move independently of the background pan; their wrapped
  // positions and column spans are resolved once per frame. A column x
  // is covered when dx = x - left satisfies dx >= 0 && dx < w.
  st.placed.clear();
  for (const auto& o : st.objects) {
    const double px = std::fmod(o.x0 + o.vx * frame_index, static_cast<double>(width));
    const double py = std::fmod(o.y0 + o.vy * frame_index, static_cast<double>(height));
    const double left = px < 0 ? px + width : px;
    const int begin = first_column(width, left, [](double dx) { return dx >= 0; });
    const int end = first_column(width, left, [w = o.w](double dx) { return !(dx < w); });
    st.placed.push_back({py < 0 ? py + height : py, o.h, begin,
                         std::max(begin, end), o.luma_delta});
  }

  // Two noise octaves panned by (ox, oy) give the texture both bulk
  // structure (for ME to latch onto) and fine detail (for the DCT to
  // code); then objects, then sensor noise one row at a time.
  st.coarse.start_frame(ox);
  st.fine.start_frame(ox);
  std::vector<double>& v = st.v;
  const dsp::KernelTable& k = dsp::kernels();
  const double* table = sensor_noise_table().data();
  for (int y = 0; y < height; ++y) {
    const double wy = y + oy;
    st.coarse.seek_row(wy);
    st.fine.seek_row(wy);
    for (std::size_t x = 0; x < v.size(); ++x) {
      v[x] = scene.brightness +
             scene.detail * (90.0 * (st.coarse.at(x) - 0.5) + 40.0 * (st.fine.at(x) - 0.5));
    }
    for (const auto& p : st.placed) {
      const double dy = y - p.top;
      if (!(dy >= 0 && dy < p.h)) continue;
      for (int x = p.begin; x < p.end; ++x) v[x] += p.luma_delta;
    }
    k.sensor_noise_row(v.data(), v.size(), scene.noise_sigma,
                       noise_key + static_cast<std::uint64_t>(y) * v.size(),
                       table, luma.row(y));
  }
}

void SyntheticVideo::render_luma(const SceneParams& scene, int frame_index,
                                 Plane& luma) {
  LumaRenderer(scene, luma.width(), luma.height()).render(frame_index, luma);
}

std::span<const double, kSensorNoiseTableSize> sensor_noise_table() {
  static const std::array<double, kSensorNoiseTableSize> table =
      build_sensor_noise_table();
  return table;
}

Frame SyntheticVideo::render(int width, int height, const SceneParams& scene,
                             int frame_index) {
  Frame f(width, height);
  render_luma(scene, frame_index, f.y());

  // Chroma at half resolution: slow noise field scaled by saturation.
  const double ox = scene.pan_x * frame_index;
  const double oy = scene.pan_y * frame_index;
  const int cw = width / 2, ch = height / 2;
  NoiseOctave cb_noise(scene.seed + 2, 40.0, cw, 2.0);
  NoiseOctave cr_noise(scene.seed + 3, 40.0, cw, 2.0);
  cb_noise.start_frame(ox);
  cr_noise.start_frame(ox);
  for (int y = 0; y < ch; ++y) {
    const double wy = 2.0 * y + oy;
    cb_noise.seek_row(wy);
    cr_noise.seek_row(wy);
    std::uint8_t* cb = f.cb().row(y);
    std::uint8_t* cr = f.cr().row(y);
    for (int x = 0; x < cw; ++x) {
      const double ncb = cb_noise.at(static_cast<std::size_t>(x)) - 0.5;
      const double ncr = cr_noise.at(static_cast<std::size_t>(x)) - 0.5;
      cb[x] = common::clamp_u8(static_cast<int>(128.0 + 2.0 * scene.saturation * ncb + 0.5));
      cr[x] = common::clamp_u8(static_cast<int>(128.0 + 2.0 * scene.saturation * ncr + 0.5));
    }
  }
  return f;
}

SyntheticVideo::SyntheticVideo(int width, int height,
                               std::vector<SceneParams> scenes,
                               int black_separator_frames)
    : width_(width), height_(height), scenes_(std::move(scenes)),
      separator_(black_separator_frames) {
  int at = 0;
  for (std::size_t i = 0; i < scenes_.size(); ++i) {
    if (i > 0) at += separator_;
    scene_starts_.push_back(at);
    at += scenes_[i].frames;
  }
}

int SyntheticVideo::total_frames() const noexcept {
  int total = 0;
  for (const auto& s : scenes_) total += s.frames;
  if (!scenes_.empty())
    total += separator_ * static_cast<int>(scenes_.size() - 1);
  return total;
}

std::optional<Frame> SyntheticVideo::next() {
  if (scene_idx_ >= scenes_.size()) return std::nullopt;
  if (separator_left_ > 0) {
    --separator_left_;
    return Frame::black(width_, height_);
  }
  const auto& scene = scenes_[scene_idx_];
  Frame f = render(width_, height_, scene, frame_in_scene_);
  if (++frame_in_scene_ >= scene.frames) {
    frame_in_scene_ = 0;
    ++scene_idx_;
    if (scene_idx_ < scenes_.size()) separator_left_ = separator_;
  }
  return f;
}

}  // namespace mmsoc::video
