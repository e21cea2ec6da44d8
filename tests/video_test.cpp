// Tests for the video subsystem: frames, synthetic source, quantizer,
// motion estimation/compensation, VLC, the full Fig. 1 codec, metrics,
// and the transcoding study.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "dsp/crc32.h"
#include "dsp/dispatch.h"
#include "entropy/rle.h"
#include "entropy/zigzag.h"
#include "video/codec.h"
#include "video/frame.h"
#include "video/metrics.h"
#include "video/motion.h"
#include "video/quantizer.h"
#include "video/source.h"
#include "video/transcode.h"
#include "video/vlc.h"
#include "video/wavelet_codec.h"

namespace mmsoc::video {
namespace {

using common::Rng;

// -------------------------------------------------------------------- frame

TEST(Plane, ClampedSampling) {
  Plane p(4, 4);
  p.set(0, 0, 10);
  p.set(3, 3, 99);
  EXPECT_EQ(p.at_clamped(-5, -5), 10);
  EXPECT_EQ(p.at_clamped(100, 100), 99);
  EXPECT_EQ(p.at_clamped(0, 100), p.at(0, 3));
}

TEST(Plane, RowsAreCacheLineAlignedAndPackedCopiesRoundTrip) {
  Plane p(66, 5, 7);
  EXPECT_GE(p.stride(), 66);
  EXPECT_EQ(p.stride() % 64, 0);
  Rng rng(5);
  for (int y = 0; y < p.height(); ++y) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.row(y)) % 64, 0u);
    for (int x = 0; x < p.width(); ++x)
      p.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
  }
  std::vector<std::uint8_t> packed(66 * 5);
  p.copy_packed_to(packed.data());
  Plane q(66, 5, /*fill=*/255);  // different padding fill than p
  q.copy_packed_from(packed.data(), packed.size());
  EXPECT_EQ(p, q);  // equality is over visible pixels only
}

// The borders and sizes the bordered-read tests below run over (33x17:
// partial macroblocks).
constexpr std::array<int, 3> kBorders = {0, 16, 32};
constexpr std::array<std::pair<int, int>, 4> kBorderSizes = {
    std::pair{352, 288}, std::pair{48, 32}, std::pair{33, 17},
    std::pair{16, 16}};

// A w x h plane with border `b`, filled from `packed` (w*h bytes) and
// edge-extended, as a Fig. 1 reference plane is.
Plane bordered_copy(const std::vector<std::uint8_t>& packed, int w, int h,
                    int b) {
  Plane p(w, h, /*fill=*/0xA5, b);
  p.copy_packed_from(packed.data(), packed.size());
  p.extend_edges();
  return p;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.next_below(256));
  return v;
}

TEST(Plane, ExtendedBorderHoldsTheClampedImageAndRowsStayAligned) {
  Rng rng(7);
  for (const int b : kBorders) {
    for (const auto& [w, h] : kBorderSizes) {
      const Plane p = bordered_copy(
          random_bytes(static_cast<std::size_t>(w) * h, rng), w, h, b);
      ASSERT_EQ(p.border(), b);
      EXPECT_EQ(p.stride() % 64, 0);
      EXPECT_GE(p.stride(), w + 2 * b);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.row(0)) % 64, 0u)
          << w << "x" << h << " border " << b;
      for (int y = -b; y < h + b; ++y) {
        for (int x = -b; x < w + b; ++x) {
          ASSERT_EQ(p.row(y)[x], p.at_clamped(x, y))
              << w << "x" << h << " border " << b << " at (" << x << "," << y
              << ")";
        }
      }
    }
  }
}

TEST(Plane, MeanAndVariance) {
  Plane p(2, 2);
  p.set(0, 0, 0);
  p.set(1, 0, 100);
  p.set(0, 1, 100);
  p.set(1, 1, 200);
  EXPECT_DOUBLE_EQ(p.mean(), 100.0);
  EXPECT_DOUBLE_EQ(p.variance(), 5000.0);
}

TEST(Frame, BlackFrameProperties) {
  const Frame f = Frame::black(32, 32);
  EXPECT_DOUBLE_EQ(f.y().mean(), 16.0);       // studio black
  EXPECT_DOUBLE_EQ(f.mean_saturation(), 0.0); // neutral chroma
}

TEST(Frame, ChromaIsHalfResolution) {
  const Frame f(64, 48);
  EXPECT_EQ(f.cb().width(), 32);
  EXPECT_EQ(f.cb().height(), 24);
  EXPECT_EQ(f.cr().width(), 32);
}

// ------------------------------------------------------------------- source

TEST(SyntheticVideo, DeterministicForSeed) {
  const auto scene = scene_low_motion(99);
  const Frame a = SyntheticVideo::render(64, 64, scene, 5);
  const Frame b = SyntheticVideo::render(64, 64, scene, 5);
  EXPECT_EQ(a, b);
}

TEST(SyntheticVideo, FramesDifferOverTime) {
  const auto scene = scene_high_motion(1);
  const Frame a = SyntheticVideo::render(64, 64, scene, 0);
  const Frame b = SyntheticVideo::render(64, 64, scene, 10);
  EXPECT_NE(a, b);
  EXPECT_LT(psnr_luma(a, b), 40.0);  // genuinely different content
}

// Golden CRC-32s of every plane: Cb and Cr recorded from the original
// per-pixel renderer, Y from the counter-hashed sensor noise. The
// renderer must reproduce them byte for byte. Kinds are low motion, high
// motion, high detail, flat (seed 7), and high motion with a negative pan
// (seed 3, pan (-3.5, -1.25)); sizes include ones that are not multiples
// of 16, and odd ones whose chroma rounds down.
struct RenderGolden {
  int kind, width, height, frame;
  std::uint32_t y, cb, cr;
};

SceneParams golden_scene(int kind) {
  switch (kind) {
    case 0: return scene_low_motion(7);
    case 1: return scene_high_motion(7);
    case 2: return scene_high_detail(7);
    case 3: return scene_flat(7);
    default: {
      SceneParams p = scene_high_motion(3);
      p.pan_x = -3.5;
      p.pan_y = -1.25;
      return p;
    }
  }
}

// Every SIMD level compiled in and runnable here, and a guard that puts
// the process's active level back.
std::vector<dsp::SimdLevel> runnable_levels() {
  std::vector<dsp::SimdLevel> out;
  for (const auto level : dsp::compiled_levels()) {
    if (dsp::cpu_supports(level)) out.push_back(level);
  }
  return out;
}

struct RestoreSimdLevel {
  dsp::SimdLevel saved = dsp::active_simd_level();
  ~RestoreSimdLevel() { dsp::set_simd_level(saved); }
};

std::uint32_t plane_crc(const Plane& p) {
  dsp::Crc32 crc;
  for (int y = 0; y < p.height(); ++y) crc.update(p.row_span(y));
  return crc.value();
}

// Checked at every SIMD level: the render's sensor-noise row and the
// digest's CRC-32 are both dispatched kernels.
TEST(SyntheticVideo, RenderMatchesRecordedGoldenCrcs) {
  constexpr RenderGolden kGolden[] = {
    {0, 352, 288, 0, 0xA307C2D5u, 0x4DD6198Bu, 0x791CE77Du},
    {0, 352, 288, 1, 0x9666AD9Du, 0x9560035Fu, 0x4890983Eu},
    {0, 352, 288, 119, 0x54827BE8u, 0x45ACF65Du, 0x05D07A25u},
    {0, 352, 288, 500, 0xD006AC2Au, 0xF546B935u, 0x7F566524u},
    {0, 176, 144, 0, 0x3679B4EAu, 0xA4E026C0u, 0x0A4BD579u},
    {0, 176, 144, 1, 0x53FEDD41u, 0xCD75C5F0u, 0x14390B0Du},
    {0, 176, 144, 119, 0x1F05B1C8u, 0xAEDF78D2u, 0x5E4465CEu},
    {0, 176, 144, 500, 0xBB66D1F5u, 0x9DE0F170u, 0x54F60A55u},
    {0, 72, 40, 0, 0x3A7C5D49u, 0x4D2D9E2Du, 0x4C7120CBu},
    {0, 72, 40, 1, 0xBE4B854Cu, 0xA4261913u, 0x2F8E5663u},
    {0, 72, 40, 119, 0xDD0A6E47u, 0x31D76559u, 0x8FC56E2Cu},
    {0, 72, 40, 500, 0x24BFB50Fu, 0xB0BA885Au, 0x8B49DDE6u},
    {0, 33, 17, 0, 0x420061E6u, 0x597070BDu, 0x78B15B2Cu},
    {0, 33, 17, 1, 0x9236185Cu, 0xB194F95Bu, 0x68B56955u},
    {0, 33, 17, 119, 0xA7DBCD93u, 0x1191FFBDu, 0x801896CEu},
    {0, 33, 17, 500, 0xAE79AC1Eu, 0xDBC0DCEBu, 0x98CA37FCu},
    {1, 352, 288, 0, 0x0AF66120u, 0x4DD6198Bu, 0x791CE77Du},
    {1, 352, 288, 1, 0xB778E287u, 0x2BFFF5C6u, 0xCA5257A7u},
    {1, 352, 288, 119, 0x03F1E78Bu, 0xA6C77A7Bu, 0xCEAAC46Eu},
    {1, 352, 288, 500, 0xCB068943u, 0xD0807FCBu, 0xA7D258DEu},
    {1, 176, 144, 0, 0x9D37D96Cu, 0xA4E026C0u, 0x0A4BD579u},
    {1, 176, 144, 1, 0xFCF286A7u, 0xEC98728Bu, 0xF0F2306Eu},
    {1, 176, 144, 119, 0xBE98A42Fu, 0x8A678332u, 0x5E5BC959u},
    {1, 176, 144, 500, 0x5C271690u, 0x6815DB17u, 0x5C105C1Eu},
    {1, 72, 40, 0, 0xAEFFCCC6u, 0x4D2D9E2Du, 0x4C7120CBu},
    {1, 72, 40, 1, 0x263F0491u, 0x0AC160CEu, 0xA5D10E9Fu},
    {1, 72, 40, 119, 0xDE57AB3Au, 0xBB487078u, 0x42A00378u},
    {1, 72, 40, 500, 0x34E1D1F3u, 0xD42065A7u, 0xA76015C2u},
    {1, 33, 17, 0, 0x8279364Bu, 0x597070BDu, 0x78B15B2Cu},
    {1, 33, 17, 1, 0x59D8BC12u, 0x553D23B1u, 0x426A5407u},
    {1, 33, 17, 119, 0x264C9D01u, 0x6F08A68Cu, 0xA49C8764u},
    {1, 33, 17, 500, 0x473AB6AAu, 0x486CC560u, 0xEFC673D5u},
    {2, 352, 288, 0, 0x609A489Au, 0x4DD6198Bu, 0x791CE77Du},
    {2, 352, 288, 1, 0x708BC85Fu, 0x8DC5A8F6u, 0xE314363Fu},
    {2, 352, 288, 119, 0x23155472u, 0xCAA108EEu, 0x68F7E2ADu},
    {2, 352, 288, 500, 0x2DB5B365u, 0xD6CB81ABu, 0x7C84F30Au},
    {2, 176, 144, 0, 0x230CE712u, 0xA4E026C0u, 0x0A4BD579u},
    {2, 176, 144, 1, 0x770909E8u, 0xECA41C01u, 0xC957127Bu},
    {2, 176, 144, 119, 0xBA246619u, 0x3A99620Fu, 0x788E10C6u},
    {2, 176, 144, 500, 0x8DE5B336u, 0x61462AD4u, 0x85328BE2u},
    {2, 72, 40, 0, 0x03FB8D72u, 0x4D2D9E2Du, 0x4C7120CBu},
    {2, 72, 40, 1, 0x41A35423u, 0xDF19F265u, 0x04610D61u},
    {2, 72, 40, 119, 0x07A7D9CFu, 0x0663E7BBu, 0x2C9F8BA8u},
    {2, 72, 40, 500, 0x938A7C41u, 0x54251ECFu, 0x4E9A922Du},
    {2, 33, 17, 0, 0x6CAECC90u, 0x597070BDu, 0x78B15B2Cu},
    {2, 33, 17, 1, 0x42EF18B9u, 0x5DE5E3F5u, 0xAB82C7CAu},
    {2, 33, 17, 119, 0x5220B752u, 0x4E2FF57Eu, 0x8CA4045Cu},
    {2, 33, 17, 500, 0xA76D007Eu, 0xE041444Cu, 0x0EF6AA27u},
    {3, 352, 288, 0, 0xB9530B5Au, 0x4DD6198Bu, 0x791CE77Du},
    {3, 352, 288, 1, 0xEBED990Bu, 0x4DD6198Bu, 0x791CE77Du},
    {3, 352, 288, 119, 0x79064B1Bu, 0x4DD6198Bu, 0x791CE77Du},
    {3, 352, 288, 500, 0xC6D3FDE9u, 0x4DD6198Bu, 0x791CE77Du},
    {3, 176, 144, 0, 0xC6DB4CB1u, 0xA4E026C0u, 0x0A4BD579u},
    {3, 176, 144, 1, 0xE567B91Eu, 0xA4E026C0u, 0x0A4BD579u},
    {3, 176, 144, 119, 0x8F459E11u, 0xA4E026C0u, 0x0A4BD579u},
    {3, 176, 144, 500, 0x37C57FACu, 0xA4E026C0u, 0x0A4BD579u},
    {3, 72, 40, 0, 0x0B426A47u, 0x4D2D9E2Du, 0x4C7120CBu},
    {3, 72, 40, 1, 0xD607F8A5u, 0x4D2D9E2Du, 0x4C7120CBu},
    {3, 72, 40, 119, 0x34DF8169u, 0x4D2D9E2Du, 0x4C7120CBu},
    {3, 72, 40, 500, 0x9801F869u, 0x4D2D9E2Du, 0x4C7120CBu},
    {3, 33, 17, 0, 0x6C88D5ADu, 0x597070BDu, 0x78B15B2Cu},
    {3, 33, 17, 1, 0xAA325C08u, 0x597070BDu, 0x78B15B2Cu},
    {3, 33, 17, 119, 0x26A95FCDu, 0x597070BDu, 0x78B15B2Cu},
    {3, 33, 17, 500, 0xCE80C6E0u, 0x597070BDu, 0x78B15B2Cu},
    {4, 72, 40, 0, 0x504580B5u, 0xDC3633B5u, 0x20DAA366u},
    {4, 72, 40, 1, 0x9CB00C6Bu, 0x4A3561E6u, 0x9BA44DA7u},
    {4, 72, 40, 119, 0x07C5AB47u, 0x146AB8E3u, 0x9A918DA8u},
    {4, 72, 40, 500, 0x84E85FB6u, 0x31FE70C9u, 0x5C349644u},
  };
  const RestoreSimdLevel restore;
  for (const dsp::SimdLevel level : runnable_levels()) {
    ASSERT_TRUE(dsp::set_simd_level(level));
    for (const auto& g : kGolden) {
      const Frame f = SyntheticVideo::render(g.width, g.height,
                                             golden_scene(g.kind), g.frame);
      SCOPED_TRACE(testing::Message()
                   << dsp::simd_level_name(level) << " kind " << g.kind << " "
                   << g.width << "x" << g.height << " frame " << g.frame);
      EXPECT_EQ(plane_crc(f.y()), g.y);
      EXPECT_EQ(plane_crc(f.cb()), g.cb);
      EXPECT_EQ(plane_crc(f.cr()), g.cr);
    }
  }
}

TEST(SyntheticVideo, RenderLumaIntoReusedPlaneMatchesRender) {
  const SceneParams scene = golden_scene(1);
  Plane luma(72, 40, 200), reused(72, 40, 200);
  LumaRenderer renderer(scene, 72, 40);
  for (const int frame : {3, 0, 119, 118, 119}) {
    const Plane want = SyntheticVideo::render(72, 40, scene, frame).y();
    SyntheticVideo::render_luma(scene, frame, luma);
    EXPECT_EQ(luma, want) << "frame " << frame;
    renderer.render(frame, reused);
    EXPECT_EQ(reused, want) << "renderer reused for frame " << frame;
  }
  Plane other(72, 41);
  EXPECT_THROW(renderer.render(0, other), std::invalid_argument);
}

// The per-pixel definition of render_luma, as the renderer computed it
// before any tabulation: two value-noise octaves evaluated at each pixel,
// the objects added in order, and one sensor-noise table entry per pixel,
// hashed from the pixel's counter. Every expression and evaluation order
// is the renderer's, so the bytes must match exactly.
double oracle_lattice(std::uint64_t seed, int xi, int yi) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(xi)) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(yi)) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// SplitMix64's finalizer, which hashes the sensor noise's frame key and
// pixel counters.
std::uint64_t oracle_mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Standard normal sensor noise of pixel i = y * width + x of a frame.
double oracle_noise(std::uint64_t seed, int frame, std::size_t i) {
  const std::uint64_t key =
      oracle_mix64(seed ^ (0xABCDull + static_cast<std::uint64_t>(frame) * 0x10001ull));
  return sensor_noise_table()[oracle_mix64(key + i) >> 52];
}

// One value-noise octave sampled at world position (wx, wy): the four
// lattice values of the cell are kept while consecutive samples stay in it.
class OracleOctave {
 public:
  OracleOctave(std::uint64_t seed, double cell) : seed_(seed), cell_(cell) {}

  double at(double wx, double wy) {
    const double gx = wx / cell_, gy = wy / cell_;
    const int x0 = static_cast<int>(std::floor(gx));
    const int y0 = static_cast<int>(std::floor(gy));
    if (x0 != x0_ || y0 != y0_ || !primed_) {
      primed_ = true;
      x0_ = x0;
      y0_ = y0;
      l00_ = oracle_lattice(seed_, x0, y0);
      l10_ = oracle_lattice(seed_, x0 + 1, y0);
      l01_ = oracle_lattice(seed_, x0, y0 + 1);
      l11_ = oracle_lattice(seed_, x0 + 1, y0 + 1);
    }
    const double fx = gx - x0, fy = gy - y0;
    const double sx = fx * fx * (3.0 - 2.0 * fx);
    const double sy = fy * fy * (3.0 - 2.0 * fy);
    const double a = common::lerp(l00_, l10_, sx);
    const double b = common::lerp(l01_, l11_, sx);
    return common::lerp(a, b, sy);
  }

 private:
  std::uint64_t seed_;
  double cell_;
  bool primed_ = false;
  int x0_ = 0, y0_ = 0;
  double l00_ = 0, l10_ = 0, l01_ = 0, l11_ = 0;
};

Plane oracle_render_luma(const SceneParams& scene, int frame, int width,
                         int height) {
  struct Object {
    double left, top, delta;
    int w, h;
  };
  std::vector<Object> objects;
  Rng layout(scene.seed * 0x5851F42D4C957F2Dull + 7);
  for (int i = 0; i < scene.num_objects; ++i) {
    const int w = static_cast<int>(layout.next_in(width / 16, width / 6));
    const int h = static_cast<int>(layout.next_in(height / 16, height / 6));
    const double x0 = layout.next_double_in(0, width);
    const double y0 = layout.next_double_in(0, height);
    const double vx = layout.next_double_in(-2.0, 2.0) * (1.0 + std::abs(scene.pan_x));
    const double vy = layout.next_double_in(-1.5, 1.5) * (1.0 + std::abs(scene.pan_y));
    const double delta = layout.next_double_in(-70.0, 70.0);
    const double px = std::fmod(x0 + vx * frame, static_cast<double>(width));
    const double py = std::fmod(y0 + vy * frame, static_cast<double>(height));
    objects.push_back({px < 0 ? px + width : px, py < 0 ? py + height : py,
                       delta, w, h});
  }
  const double ox = scene.pan_x * frame, oy = scene.pan_y * frame;
  OracleOctave coarse_octave(scene.seed, 24.0), fine_octave(scene.seed + 1, 5.0);
  Plane luma(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double coarse = coarse_octave.at(x + ox, y + oy);
      const double fine = fine_octave.at(x + ox, y + oy);
      double v = scene.brightness +
                 scene.detail * (90.0 * (coarse - 0.5) + 40.0 * (fine - 0.5));
      for (const auto& o : objects) {
        const double dx = x - o.left, dy = y - o.top;
        if (dy >= 0 && dy < o.h && dx >= 0 && dx < o.w) v += o.delta;
      }
      const std::size_t i = static_cast<std::size_t>(y) * width + x;
      const double noisy = v + scene.noise_sigma * oracle_noise(scene.seed, frame, i);
      luma.set(x, y, common::clamp_u8(static_cast<int>(noisy + 0.5)));
    }
  }
  return luma;
}

TEST(SyntheticVideo, RenderMatchesPerPixelReference) {
  // High motion, high detail, flat (sensor noise sigma 0.3) and the
  // negative-pan golden scene, at CIF, QCIF, an odd width and a width
  // short of its padded stride, at every SIMD level.
  struct Size {
    int width, height;
  };
  constexpr Size kSizes[] = {{352, 288}, {176, 144}, {33, 17}, {72, 40}};
  // One renderer per scene, size and SIMD level renders every frame in
  // turn, as a capture stage does.
  constexpr std::uint8_t kFill = 200;
  const RestoreSimdLevel restore;
  const auto levels = runnable_levels();
  for (const int kind : {1, 2, 3, 4}) {
    const SceneParams scene = golden_scene(kind);
    for (const auto size : kSizes) {
      std::vector<LumaRenderer> renderers;
      std::vector<Plane> lumas;
      for (std::size_t i = 0; i < levels.size(); ++i) {
        renderers.emplace_back(scene, size.width, size.height);
        lumas.emplace_back(size.width, size.height, kFill);
      }
      for (int frame = 0; frame < 200; ++frame) {
        const Plane expected = oracle_render_luma(scene, frame, size.width, size.height);
        for (std::size_t i = 0; i < levels.size(); ++i) {
          ASSERT_TRUE(dsp::set_simd_level(levels[i]));
          renderers[i].render(frame, lumas[i]);
          ASSERT_EQ(lumas[i], expected)
              << dsp::simd_level_name(levels[i]) << " kind " << kind << " "
              << size.width << "x" << size.height << " frame " << frame;
        }
      }
      for (const Plane& luma : lumas)
        for (int y = 0; y < luma.height(); ++y)
          for (int x = luma.width(); x < luma.stride(); ++x)
            ASSERT_EQ(luma.row(y)[x], kFill) << "padding written at " << x << "," << y;
    }
  }
}

// Each entry is Phi^-1((i + 0.5) / 4096) to within 1e-6, checked through
// Phi(x) = erfc(-x / sqrt 2) / 2, and lies on the 2^-20 grid.
TEST(SensorNoise, TableIsTheNormalQuantileAtBinMidpoints) {
  const auto table = sensor_noise_table();
  const auto phi = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
  for (std::size_t i = 0; i < table.size(); ++i) {
    const double p = (static_cast<double>(i) + 0.5) / static_cast<double>(table.size());
    EXPECT_EQ(table[i], -table[table.size() - 1 - i]) << i;
    if (i > 0) {
      EXPECT_LT(table[i - 1], table[i]) << i;
    }
    EXPECT_LE(phi(table[i] - 1e-6), p) << i;
    EXPECT_GE(phi(table[i] + 1e-6), p) << i;
    EXPECT_EQ(table[i] * 0x1.0p20, std::round(table[i] * 0x1.0p20)) << i;
  }
}

// One CIF frame of raw noise has the table's moments, and neither
// horizontal, vertical nor frame-to-frame neighbours are correlated.
TEST(SensorNoise, CifFrameIsUncorrelatedWithTheTablesMoments) {
  constexpr std::size_t kWidth = 352, kHeight = 288, kPixels = kWidth * kHeight;
  constexpr std::uint64_t kSeed = 1;
  std::vector<double> g(kPixels), next(kPixels);
  for (std::size_t i = 0; i < kPixels; ++i) {
    g[i] = oracle_noise(kSeed, 0, i);
    next[i] = oracle_noise(kSeed, 1, i);
  }
  double table_variance = 0.0;
  for (const double t : sensor_noise_table()) table_variance += t * t;
  table_variance /= static_cast<double>(kSensorNoiseTableSize);

  double mean = 0.0, variance = 0.0;
  for (const double x : g) mean += x;
  mean /= kPixels;
  for (const double x : g) variance += (x - mean) * (x - mean);
  variance /= kPixels;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(variance, table_variance, 0.01 * table_variance);

  // Pearson correlation of g[i] and b[i + lag] over the given pixels.
  const auto correlation = [&](const std::vector<double>& b, std::size_t lag,
                               auto&& included) {
    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0, n = 0;
    for (std::size_t i = 0; i + lag < kPixels; ++i) {
      if (!included(i)) continue;
      const double x = g[i], y = b[i + lag];
      sa += x, sb += y, saa += x * x, sbb += y * y, sab += x * y, n += 1;
    }
    const double cov = sab / n - (sa / n) * (sb / n);
    return cov / std::sqrt((saa / n - (sa / n) * (sa / n)) *
                           (sbb / n - (sb / n) * (sb / n)));
  };
  const auto all = [](std::size_t) { return true; };
  const auto not_last_column = [](std::size_t i) { return i % kWidth != kWidth - 1; };
  EXPECT_LT(std::abs(correlation(g, 1, not_last_column)), 0.01) << "horizontal";
  EXPECT_LT(std::abs(correlation(g, kWidth, all)), 0.01) << "vertical";
  EXPECT_LT(std::abs(correlation(next, 0, all)), 0.01) << "frame to frame";
}

TEST(SyntheticVideo, ScriptLengthAndSeparators) {
  std::vector<SceneParams> scenes = {scene_flat(1), scene_flat(2)};
  scenes[0].frames = 5;
  scenes[1].frames = 7;
  SyntheticVideo src(32, 32, scenes, /*black_separator_frames=*/3);
  EXPECT_EQ(src.total_frames(), 15);
  int count = 0, black = 0;
  while (auto f = src.next()) {
    ++count;
    if (f->y().mean() < 17.0 && f->y().variance() < 1.0) ++black;
  }
  EXPECT_EQ(count, 15);
  EXPECT_EQ(black, 3);
  ASSERT_EQ(src.scene_starts().size(), 2u);
  EXPECT_EQ(src.scene_starts()[0], 0);
  EXPECT_EQ(src.scene_starts()[1], 8);  // 5 content + 3 separator
}

TEST(SyntheticVideo, SaturationControlsChroma) {
  auto colorful = scene_low_motion(5);
  colorful.saturation = 60.0;
  auto bw = scene_low_motion(5);
  bw.saturation = 0.0;
  const Frame fc = SyntheticVideo::render(64, 64, colorful, 0);
  const Frame fb = SyntheticVideo::render(64, 64, bw, 0);
  EXPECT_GT(fc.mean_saturation(), 10.0);
  EXPECT_LT(fb.mean_saturation(), 1.0);
}

// ---------------------------------------------------------------- quantizer

TEST(Quantizer, RoundTripErrorBoundedByHalfStep) {
  Rng rng(1);
  const Quantizer q(default_intra_matrix(), 8);
  std::array<float, 64> coeffs;
  for (auto& c : coeffs) c = static_cast<float>(rng.next_double_in(-500, 500));
  std::array<std::int16_t, 64> levels;
  std::array<float, 64> back;
  q.quantize(coeffs, levels);
  q.dequantize(levels, back);
  for (int i = 0; i < 64; ++i) {
    EXPECT_LE(std::abs(back[i] - coeffs[i]), q.step(i) / 2.0f + 1e-3f);
  }
}

TEST(Quantizer, HigherQscaleCoarserSteps) {
  const Quantizer fine(default_intra_matrix(), 2);
  const Quantizer coarse(default_intra_matrix(), 20);
  for (int i = 0; i < 64; ++i) EXPECT_GE(coarse.step(i), fine.step(i));
}

TEST(Quantizer, IntraMatrixPenalizesHighFrequencies) {
  const auto& m = default_intra_matrix();
  EXPECT_LT(m[0], m[63]);  // DC step < highest-frequency step
}

TEST(Quantizer, CoarseQuantizationZeroesHighFrequenciesFirst) {
  // The paper's §3 claim, directly: code a natural-statistics block at
  // increasing qscale and watch the high-frequency tail die first.
  Rng rng(2);
  std::array<float, 64> coeffs;
  for (int i = 0; i < 64; ++i) {
    // 1/f-style spectrum.
    coeffs[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.next_double_in(-1, 1) * 800.0 / (1 + i));
  }
  const Quantizer coarse(default_intra_matrix(), 24);
  std::array<std::int16_t, 64> levels;
  coarse.quantize(coeffs, levels);
  int low_nonzero = 0, high_nonzero = 0;
  for (int i = 0; i < 8; ++i)
    if (levels[static_cast<std::size_t>(i)] != 0) ++low_nonzero;
  for (int i = 48; i < 64; ++i)
    if (levels[static_cast<std::size_t>(i)] != 0) ++high_nonzero;
  EXPECT_GT(low_nonzero, 0);
  EXPECT_EQ(high_nonzero, 0);
}

TEST(Quantizer, QscaleClampedToValidRange) {
  const Quantizer q0(default_intra_matrix(), 0);
  const Quantizer q99(default_intra_matrix(), 99);
  EXPECT_EQ(q0.qscale(), 1);
  EXPECT_EQ(q99.qscale(), 31);
}

// ------------------------------------------------------------------- motion

// compensate / compensate_chroma into a fresh plane of ref's size.
Plane compensated(const Plane& ref, const MotionField& field, bool chroma) {
  Plane out(ref.width(), ref.height());
  if (chroma) {
    compensate_chroma(ref, field, out);
  } else {
    compensate(ref, field, out);
  }
  return out;
}

Plane translated_noise_plane(int w, int h, int dx, int dy, std::uint64_t seed) {
  // Build a large noise field and cut two windows displaced by (dx, dy).
  Rng rng(seed);
  const int margin = 32;
  std::vector<std::uint8_t> big(static_cast<std::size_t>(w + 2 * margin) *
                                (h + 2 * margin));
  for (auto& p : big) p = static_cast<std::uint8_t>(rng.next());
  Plane out(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      out.set(x, y, big[static_cast<std::size_t>(y + margin + dy) * (w + 2 * margin) +
                        (x + margin + dx)]);
  return out;
}

class FullSearchRecovery
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FullSearchRecovery, FindsExactTranslation) {
  // Property (§3): if the current frame is the reference translated by
  // (dx, dy), full-search ME must find exactly that vector with SAD 0.
  const auto [dx, dy] = GetParam();
  const Plane ref = translated_noise_plane(64, 64, 0, 0, 77);
  const Plane cur = translated_noise_plane(64, 64, dx, dy, 77);
  const auto field = estimate_frame(cur, ref, 8, SearchAlgorithm::kFullSearch);
  // Interior blocks (away from clamped borders) must find the exact vector.
  const auto& b = field.blocks[static_cast<std::size_t>(1) * field.blocks_x + 1];
  EXPECT_EQ(b.mv.dx, dx);
  EXPECT_EQ(b.mv.dy, dy);
  EXPECT_EQ(b.sad, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, FullSearchRecovery,
    ::testing::Values(std::pair{0, 0}, std::pair{1, 0}, std::pair{-1, 2},
                      std::pair{3, -3}, std::pair{-7, 5}, std::pair{8, -8},
                      std::pair{-8, 8}, std::pair{4, 7}));

TEST(Motion, FastSearchesCheaperThanFull) {
  const auto scene = scene_high_motion(3);
  const Plane cur = SyntheticVideo::render(96, 96, scene, 4).y();
  const Plane ref = SyntheticVideo::render(96, 96, scene, 3).y();
  const auto full = estimate_frame(cur, ref, 8, SearchAlgorithm::kFullSearch);
  const auto tss = estimate_frame(cur, ref, 8, SearchAlgorithm::kThreeStep);
  const auto ds = estimate_frame(cur, ref, 8, SearchAlgorithm::kDiamond);
  EXPECT_LT(tss.total_evaluations(), full.total_evaluations() / 5);
  EXPECT_LT(ds.total_evaluations(), full.total_evaluations() / 5);
  // Fast searches are suboptimal but close: within 2x of optimal SAD.
  EXPECT_LE(full.total_sad(), tss.total_sad());
  EXPECT_LE(full.total_sad(), ds.total_sad());
  EXPECT_LT(tss.total_sad(), 2 * full.total_sad() + 1000);
  EXPECT_LT(ds.total_sad(), 2 * full.total_sad() + 1000);
}

TEST(Motion, CompensationReconstructsTranslation) {
  const Plane ref = translated_noise_plane(64, 64, 0, 0, 9);
  const Plane cur = translated_noise_plane(64, 64, 5, -3, 9);
  const auto field = estimate_frame(cur, ref, 8, SearchAlgorithm::kFullSearch);
  const Plane pred = compensated(ref, field, /*chroma=*/false);
  // Interior (non-border) pixels of prediction match the current frame.
  int exact = 0, total = 0;
  for (int y = 16; y < 48; ++y)
    for (int x = 16; x < 48; ++x) {
      ++total;
      if (pred.at(x, y) == cur.at(x, y)) ++exact;
    }
  EXPECT_EQ(exact, total);
}

TEST(Motion, SadZeroForIdenticalBlocks) {
  const Plane p = translated_noise_plane(32, 32, 0, 0, 10);
  EXPECT_EQ(sad16(p, p, 8, 8, 0, 0), 0u);
}

TEST(Motion, SearchRespectsRange) {
  const Plane ref = translated_noise_plane(64, 64, 0, 0, 11);
  const Plane cur = translated_noise_plane(64, 64, 0, 0, 12);
  for (const auto algo : {SearchAlgorithm::kFullSearch,
                          SearchAlgorithm::kThreeStep,
                          SearchAlgorithm::kDiamond}) {
    const auto field = estimate_frame(cur, ref, 4, algo);
    for (const auto& b : field.blocks) {
      EXPECT_LE(std::abs(b.mv.dx), 4);
      EXPECT_LE(std::abs(b.mv.dy), 4);
    }
  }
}

TEST(Motion, NoneAlgorithmReturnsZeroVector) {
  const Plane p = translated_noise_plane(32, 32, 0, 0, 13);
  const auto r = estimate_block(p, p, 16, 16, 8, SearchAlgorithm::kNone);
  EXPECT_EQ(r.mv, (MotionVector{0, 0}));
  EXPECT_EQ(r.evaluations, 1u);
}

TEST(Motion, ThreeStepReachesOddRangeCorners) {
  // Regression: the step schedule used to start at range/2 truncated, so
  // with range 5 the steps were 2,1 and no displacement beyond 3 was
  // reachable. The schedule must start at the smallest power of two with
  // 2*step - 1 >= range (4 for range 5: reach 4+2+1 = 7).
  Plane ref(64, 48), cur(64, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      // Pure x-gradient; cur is ref translated right by 5, so the best
      // vector has dx == -5 (any dy — rows are identical) with SAD 0.
      ref.set(x, y, static_cast<std::uint8_t>(3 * x));
      cur.set(x, y, static_cast<std::uint8_t>(3 * (x >= 5 ? x - 5 : 0)));
    }
  }
  const auto r =
      estimate_block(cur, ref, 24, 16, /*range=*/5, SearchAlgorithm::kThreeStep);
  EXPECT_EQ(r.mv.dx, -5);
  EXPECT_EQ(r.sad, 0u);
}

TEST(Motion, DiamondRefinementKeepsFixedCenter) {
  // Regression: the small-diamond refinement used to move the center
  // mid-loop, so after accepting one improving neighbour the remaining
  // candidates were measured around the drifted point and the true argmin
  // of the four fixed neighbours could never be evaluated. Seed 265 was
  // chosen so the SAD landscape around the converged center (0,0) is:
  //   f(1,0) < f(0,-1) < f(0,0) <= f(d) for every large-diamond d,
  //   f(0,1), f(-1,0) >= f(1,0).
  // The drifting version accepts (0,-1) first and then never evaluates
  // (1,0); the fixed argmin returns (1,0).
  Rng rng(265);
  Plane ref(48, 48), cur(48, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x)
      ref.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x) {
      const int v =
          ref.at_clamped(x + 1, y) + static_cast<int>(rng.next_in(-24, 24));
      cur.set(x, y, common::clamp_u8(v));
    }
  const int bx = 16, by = 16;
  const auto f = [&](int dx, int dy) { return sad16(cur, ref, bx, by, dx, dy); };
  // Validate the landscape preconditions the regression relies on.
  const auto f00 = f(0, 0);
  for (const auto& d :
       {MotionVector{0, -2}, MotionVector{1, -1}, MotionVector{2, 0},
        MotionVector{1, 1}, MotionVector{0, 2}, MotionVector{-1, 1},
        MotionVector{-2, 0}, MotionVector{-1, -1}}) {
    ASSERT_GE(f(d.dx, d.dy), f00);
  }
  ASSERT_LT(f(0, -1), f00);
  ASSERT_LT(f(1, 0), f(0, -1));
  ASSERT_GE(f(0, 1), f(1, 0));
  ASSERT_GE(f(-1, 0), f(1, 0));
  const auto r = estimate_block(cur, ref, bx, by, 8, SearchAlgorithm::kDiamond);
  EXPECT_EQ(r.mv, (MotionVector{1, 0}));
  EXPECT_EQ(r.sad, f(1, 0));
}

Plane random_plane(int w, int h, Rng& rng) {
  Plane p(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      p.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
  return p;
}

TEST(Motion, PartialEdgeMacroblocksAreEstimatedAndCompensated) {
  // Regression: non-multiple-of-16 frames used to lose their right/bottom
  // strips — block counts truncated, and compensate() left the uncovered
  // pixels at the Plane fill value. Block counts now round up and the
  // border blocks edge-clamp.
  const int w = 72, h = 40;  // 4.5 x 2.5 macroblocks
  Rng rng(31);
  const Plane ref = random_plane(w, h, rng);
  const Plane cur = ref;
  const auto field = estimate_frame(cur, ref, 4, SearchAlgorithm::kFullSearch);
  EXPECT_EQ(field.blocks_x, 5);
  EXPECT_EQ(field.blocks_y, 3);
  for (const auto& b : field.blocks) {
    EXPECT_EQ(b.mv, (MotionVector{0, 0}));
    EXPECT_EQ(b.sad, 0u);
  }
  // Identical frames + zero vectors: compensation must reproduce the
  // reference exactly, including the partial edge strips.
  EXPECT_EQ(compensated(ref, field, /*chroma=*/false), ref);
  // Chroma plane of a 72x40 4:2:0 frame: 36x20, also not block-aligned.
  const Plane cref = random_plane(w / 2, h / 2, rng);
  EXPECT_EQ(compensated(cref, field, /*chroma=*/true), cref);
}

// `p`'s at_clamped values over [-reach, size + reach) in both axes, as a
// dense table indexed from (-reach, -reach): the per-pixel clamped
// definition, precomputed so millions of oracle SADs stay cheap.
class ClampedTable {
 public:
  ClampedTable(const Plane& p, int reach)
      : reach_(reach), width_(p.width() + 2 * reach),
        v_(static_cast<std::size_t>(width_) * (p.height() + 2 * reach)) {
    for (int y = -reach; y < p.height() + reach; ++y)
      for (int x = -reach; x < p.width() + reach; ++x)
        v_[index(x, y)] = p.at_clamped(x, y);
  }
  [[nodiscard]] int at(int x, int y) const { return v_[index(x, y)]; }

 private:
  [[nodiscard]] std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y + reach_) * width_ + (x + reach_);
  }
  int reach_, width_;
  std::vector<std::uint8_t> v_;
};

TEST(Motion, BorderSadEqualsPerPixelClampedSum) {
  // A window inside a plane's extended border is read in place, any other
  // window that leaves the plane is gathered edge-clamped; both must equal
  // the per-pixel clamped definition at every macroblock, partial ones
  // included, for every vector up to 20 pixels and up to 4 past the
  // border (corners and windows just beyond it).
  Rng rng(41);
  for (const int b : kBorders) {
    for (const auto& [w, h] : kBorderSizes) {
      const std::size_t n = static_cast<std::size_t>(w) * h;
      const Plane cur = bordered_copy(random_bytes(n, rng), w, h, b);
      const Plane ref = bordered_copy(random_bytes(n, rng), w, h, b);
      const int reach = std::max(20, b + 4);
      const ClampedTable want_cur(cur, kMacroblockSize);
      const ClampedTable want_ref(ref, reach + kMacroblockSize);
      for (int by = 0; by < h; by += kMacroblockSize) {
        for (int bx = 0; bx < w; bx += kMacroblockSize) {
          for (int dy = -reach; dy <= reach; ++dy) {
            for (int dx = -reach; dx <= reach; ++dx) {
              std::uint64_t want = 0;
              for (int y = 0; y < kMacroblockSize; ++y)
                for (int x = 0; x < kMacroblockSize; ++x)
                  want += static_cast<std::uint64_t>(
                      std::abs(want_cur.at(bx + x, by + y) -
                               want_ref.at(bx + x + dx, by + y + dy)));
              ASSERT_EQ(sad16(cur, ref, bx, by, dx, dy), want)
                  << w << "x" << h << " border " << b << " block (" << bx
                  << "," << by << ") vector (" << dx << "," << dy << ")";
            }
          }
        }
      }
    }
  }
}

TEST(Motion, CompensationEqualsPerPixelClampedFetch) {
  // Row-copy compensation must equal the per-pixel clamped fetch for
  // vectors that point past every edge and past the reference's border
  // (chroma: halved toward zero).
  Rng rng(43);
  for (const int b : kBorders) {
    for (const auto& [w, h] : kBorderSizes) {
      MotionField field;
      field.blocks_x = (w + kMacroblockSize - 1) / kMacroblockSize;
      field.blocks_y = (h + kMacroblockSize - 1) / kMacroblockSize;
      for (int trial = 0; trial < 20; ++trial) {
        field.blocks.clear();
        for (int i = 0; i < field.blocks_x * field.blocks_y; ++i) {
          MotionResult r;
          r.mv = MotionVector{static_cast<int>(rng.next_in(-40, 40)),
                              static_cast<int>(rng.next_in(-40, 40))};
          field.blocks.push_back(r);
        }
        for (const bool chroma : {false, true}) {
          const int block = chroma ? kMacroblockSize / 2 : kMacroblockSize;
          const int div = chroma ? 2 : 1;
          const int pw = chroma ? w / 2 : w;
          const int ph = chroma ? h / 2 : h;
          const Plane ref = bordered_copy(
              random_bytes(static_cast<std::size_t>(pw) * ph, rng), pw, ph, b);
          const Plane got = compensated(ref, field, chroma);
          ASSERT_EQ(got.width(), ref.width());
          ASSERT_EQ(got.height(), ref.height());
          for (int y = 0; y < ref.height(); ++y) {
            for (int x = 0; x < ref.width(); ++x) {
              const auto& mv =
                  field.blocks[static_cast<std::size_t>(y / block) *
                                   field.blocks_x +
                               x / block]
                      .mv;
              ASSERT_EQ(got.at(x, y),
                        ref.at_clamped(x + mv.dx / div, y + mv.dy / div))
                  << (chroma ? "chroma " : "luma ") << w << "x" << h
                  << " border " << b << " pixel (" << x << "," << y << ")";
            }
          }
        }
      }
    }
  }
}

TEST(Motion, BorderedReferenceGivesTheSameField) {
  // The border only changes where a window is read from: every search
  // against a bordered reference finds the same field as against the same
  // pixels without one, inside the border (ranges 4 and 8) and beyond it
  // (range 40 gathers).
  const auto scene = scene_high_motion(5);
  for (const auto& [w, h] : kBorderSizes) {
    std::vector<std::uint8_t> packed(static_cast<std::size_t>(w) * h);
    SyntheticVideo::render(w, h, scene, 6).y().copy_packed_to(packed.data());
    const Plane cur = SyntheticVideo::render(w, h, scene, 7).y();
    const Plane plain = bordered_copy(packed, w, h, 0);
    for (const int b : kBorders) {
      const Plane ref = bordered_copy(packed, w, h, b);
      for (const auto algo : {SearchAlgorithm::kFullSearch,
                              SearchAlgorithm::kThreeStep,
                              SearchAlgorithm::kDiamond}) {
        for (const int range : {4, 8, 40}) {
          const auto got = estimate_frame(cur, ref, range, algo);
          const auto want = estimate_frame(cur, plain, range, algo);
          ASSERT_EQ(got.blocks.size(), want.blocks.size());
          for (std::size_t i = 0; i < got.blocks.size(); ++i) {
            ASSERT_EQ(got.blocks[i].mv, want.blocks[i].mv)
                << w << "x" << h << " border " << b << " range " << range
                << " block " << i;
            ASSERT_EQ(got.blocks[i].sad, want.blocks[i].sad);
            ASSERT_EQ(got.blocks[i].evaluations, want.blocks[i].evaluations);
          }
        }
      }
    }
  }
}

// Each search scored one candidate at a time through public sad16(), in
// the scan order and with the selection rules of motion.h: the reference
// the batched searches must equal in vector, SAD and evaluation count.
MotionResult per_candidate_search(const Plane& cur, const Plane& ref, int bx,
                                  int by, int range, SearchAlgorithm algo) {
  MotionResult best;
  const auto sad = [&](int dx, int dy) {
    ++best.evaluations;
    return sad16(cur, ref, bx, by, dx, dy);
  };
  const auto in_range = [&](int dx, int dy) {
    return std::abs(dx) <= range && std::abs(dy) <= range;
  };
  // Moves the center to the first strictly better in-range point of
  // `pattern` (scaled by `step`); true if it moved.
  const auto step_to = [&](const std::vector<MotionVector>& pattern,
                           int step) {
    MotionVector next = best.mv;
    for (const auto& d : pattern) {
      const int dx = best.mv.dx + d.dx * step;
      const int dy = best.mv.dy + d.dy * step;
      if (!in_range(dx, dy)) continue;
      if (const auto s = sad(dx, dy); s < best.sad) {
        best.sad = s;
        next = MotionVector{dx, dy};
      }
    }
    const bool moved = !(next == best.mv);
    best.mv = next;
    return moved;
  };
  switch (algo) {
    case SearchAlgorithm::kFullSearch:
      best.sad = ~std::uint64_t{0};
      for (int dy = -range; dy <= range; ++dy) {
        for (int dx = -range; dx <= range; ++dx) {
          const auto s = sad(dx, dy);
          if (s < best.sad ||
              (s == best.sad && std::abs(dx) + std::abs(dy) <
                                    std::abs(best.mv.dx) + std::abs(best.mv.dy))) {
            best.mv = MotionVector{dx, dy};
            best.sad = s;
          }
        }
      }
      break;
    case SearchAlgorithm::kThreeStep: {
      best.sad = sad(0, 0);
      int step = 1;
      while (2 * step - 1 < range) step *= 2;
      const std::vector<MotionVector> square = {{-1, -1}, {0, -1}, {1, -1},
                                                {-1, 0},  {1, 0},  {-1, 1},
                                                {0, 1},   {1, 1}};
      for (; step >= 1; step /= 2) step_to(square, step);
      break;
    }
    case SearchAlgorithm::kDiamond: {
      best.sad = sad(0, 0);
      const std::vector<MotionVector> large = {{0, -2}, {1, -1}, {2, 0},
                                               {1, 1},  {0, 2},  {-1, 1},
                                               {-2, 0}, {-1, -1}};
      const std::vector<MotionVector> small = {{0, -1}, {1, 0}, {0, 1},
                                               {-1, 0}};
      for (int iter = 0; iter < 4 * range + 8 && step_to(large, 1); ++iter) {
      }
      step_to(small, 1);
      break;
    }
    case SearchAlgorithm::kNone:
      best.sad = sad(0, 0);
      break;
  }
  return best;
}

TEST(Motion, SearchesEqualPerCandidateOracle) {
  // Batching a step's candidates into one kernel call changes no result:
  // every algorithm and range, on bordered and plain references, and on a
  // plane with partial edge macroblocks, equals the per-candidate search
  // in vector, SAD and evaluation count, block by block and through
  // estimate_frame.
  const auto scene = scene_high_motion(9);
  for (const auto& [w, h] : {std::pair{352, 288}, std::pair{72, 40}}) {
    std::vector<std::uint8_t> packed(static_cast<std::size_t>(w) * h);
    SyntheticVideo::render(w, h, scene, 3).y().copy_packed_to(packed.data());
    const Plane cur = SyntheticVideo::render(w, h, scene, 4).y();
    for (const int b : {0, kReferenceBorder}) {
      const Plane ref = bordered_copy(packed, w, h, b);
      for (const auto algo :
           {SearchAlgorithm::kFullSearch, SearchAlgorithm::kThreeStep,
            SearchAlgorithm::kDiamond, SearchAlgorithm::kNone}) {
        for (const int range : {1, 2, 5, 8, 16, 20}) {
          const auto field = estimate_frame(cur, ref, range, algo);
          ASSERT_EQ(field.blocks_x, (w + 15) / 16);
          ASSERT_EQ(field.blocks_y, (h + 15) / 16);
          for (int by = 0; by < field.blocks_y; ++by) {
            for (int bx = 0; bx < field.blocks_x; ++bx) {
              const auto want = per_candidate_search(
                  cur, ref, bx * kMacroblockSize, by * kMacroblockSize, range,
                  algo);
              const auto& got =
                  field.blocks[static_cast<std::size_t>(by) * field.blocks_x + bx];
              const auto block = estimate_block(cur, ref, bx * kMacroblockSize,
                                                by * kMacroblockSize, range, algo);
              ASSERT_EQ(got.mv, want.mv)
                  << w << "x" << h << " border " << b << " algo "
                  << static_cast<int>(algo) << " range " << range << " block ("
                  << bx << "," << by << ")";
              ASSERT_EQ(got.sad, want.sad);
              ASSERT_EQ(got.evaluations, want.evaluations);
              ASSERT_EQ(block.mv, want.mv);
              ASSERT_EQ(block.sad, want.sad);
              ASSERT_EQ(block.evaluations, want.evaluations);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------- vlc


TEST(Vlc, DefaultCodeIsPackageMergeOfItsModel) {
  // The default code's lengths are data; they must stay the 16-bit-limited
  // package-merge code of the parametric model they were derived from, so
  // every stream coded before they became data decodes the same.
  std::vector<std::uint64_t> freqs(entropy::kRunLevelSymbols, 0);
  constexpr double kRunDecay = 0.62;
  constexpr double kLevelDecay = 0.45;
  constexpr double kScale = 1e7;
  freqs[entropy::kEobSymbol] = static_cast<std::uint64_t>(kScale * 1.2);
  for (int run = 0; run <= 31; ++run) {
    for (int mag = 1; mag <= 16; ++mag) {
      const double p = std::pow(kRunDecay, run) * std::pow(kLevelDecay, mag - 1);
      const auto f = static_cast<std::uint64_t>(kScale * p);
      freqs[1 + run * 16 + (mag - 1)] = f > 0 ? f : 1;
    }
  }
  freqs[entropy::kEscapeSymbol] = static_cast<std::uint64_t>(kScale * 1e-4);
  const auto built = entropy::HuffmanCode::from_frequencies(freqs, 16);
  ASSERT_TRUE(built.is_ok());
  const auto want = built.value().lengths();
  const auto got = default_vlc_table().lengths();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "symbol " << i;
    EXPECT_EQ(default_vlc_table().codeword(i), built.value().codeword(i))
        << "symbol " << i;
  }
}

TEST(Vlc, BlockRoundTripRandomLevels) {
  Rng rng(20);
  for (int trial = 0; trial < 100; ++trial) {
    std::array<std::int16_t, 64> levels{};
    levels[0] = static_cast<std::int16_t>(rng.next_in(-200, 200));
    const int n = static_cast<int>(rng.next_below(25));
    for (int i = 0; i < n; ++i) {
      auto v = static_cast<std::int16_t>(rng.next_in(-40, 40));
      if (v == 0) v = 1;
      levels[1 + rng.next_below(63)] = v;
    }
    common::BitWriter w;
    std::int16_t dc_pred_enc = 0;
    encode_block(levels, true, dc_pred_enc, w);
    const auto bytes = w.take();
    common::BitReader r(bytes);
    std::array<std::int16_t, 64> decoded{};
    std::int16_t dc_pred_dec = 0;
    ASSERT_TRUE(decode_block(r, true, dc_pred_dec, decoded));
    EXPECT_EQ(decoded, levels) << "trial " << trial;
    EXPECT_EQ(dc_pred_enc, dc_pred_dec);
  }
}

TEST(Vlc, EscapePathForLargeLevels) {
  std::array<std::int16_t, 64> levels{};
  levels[0] = 0;
  levels[9] = 3000;   // |level| > 16 forces escape
  levels[17] = -2500;
  common::BitWriter w;
  std::int16_t dc = 0;
  encode_block(levels, false, dc, w);
  const auto bytes = w.take();
  common::BitReader r(bytes);
  std::array<std::int16_t, 64> decoded{};
  std::int16_t dc2 = 0;
  ASSERT_TRUE(decode_block(r, false, dc2, decoded));
  EXPECT_EQ(decoded, levels);
}

TEST(Vlc, DcPredictionChains) {
  common::BitWriter w;
  std::int16_t dc_pred = 0;
  std::array<std::int16_t, 64> a{}, b{};
  a[0] = 100;
  b[0] = 103;
  encode_block(a, true, dc_pred, w);
  encode_block(b, true, dc_pred, w);
  EXPECT_EQ(dc_pred, 103);
  const auto bytes = w.take();
  common::BitReader r(bytes);
  std::array<std::int16_t, 64> da{}, db{};
  std::int16_t dc2 = 0;
  ASSERT_TRUE(decode_block(r, true, dc2, da));
  ASSERT_TRUE(decode_block(r, true, dc2, db));
  EXPECT_EQ(da[0], 100);
  EXPECT_EQ(db[0], 103);
}

TEST(Vlc, TruncatedStreamFailsCleanly) {
  std::array<std::int16_t, 64> levels{};
  levels[5] = 7;
  common::BitWriter w;
  std::int16_t dc = 0;
  encode_block(levels, true, dc, w);
  auto bytes = w.take();
  bytes.resize(bytes.size() / 2);
  common::BitReader r(bytes);
  std::array<std::int16_t, 64> decoded{};
  std::int16_t dc2 = 0;
  // Either decodes garbage-free or fails; must not crash. Most truncations
  // fail; all leave the reader in a detectable state.
  const bool ok = decode_block(r, true, dc2, decoded);
  if (!ok) SUCCEED();
}

// The VLC as a plain zig-zag walk: each (run, level) event coded through
// HuffmanCode::encode, then its sign bit or its escape fields, then EOB.
BlockCodeStats reference_encode_block(std::span<const std::int16_t, 64> levels,
                                      bool code_dc, std::int16_t& dc_pred,
                                      common::BitWriter& out) {
  const auto& table = default_vlc_table();
  const std::size_t start = out.bit_count();
  BlockCodeStats stats;
  out.put_se(code_dc ? levels[0] - dc_pred : levels[0]);
  if (code_dc) dc_pred = levels[0];
  ++stats.symbols;
  int run = 0;
  for (int scan = 1; scan < 64; ++scan) {
    const std::int16_t v = levels[entropy::kZigZag8x8[scan]];
    if (v == 0) {
      ++run;
      continue;
    }
    const entropy::RunLevel rl{static_cast<std::uint8_t>(run), v};
    const int symbol = entropy::run_level_to_symbol(rl);
    table.encode(static_cast<std::size_t>(symbol), out);
    ++stats.symbols;
    if (symbol == entropy::kEscapeSymbol) {
      out.put_bits(rl.run, 6);
      out.put_se(v);
    } else {
      out.put_bit(v < 0 ? 1 : 0);
    }
    run = 0;
  }
  table.encode(entropy::kEobSymbol, out);
  ++stats.symbols;
  stats.bits = static_cast<std::uint32_t>(out.bit_count() - start);
  return stats;
}

using Block = std::array<std::int16_t, 64>;

void set_scan(Block& b, int scan, int level) {
  b[entropy::kZigZag8x8[scan]] = static_cast<std::int16_t>(level);
}

std::int16_t nonzero_level(Rng& rng, int lo, int hi) {
  const auto v = static_cast<std::int16_t>(rng.next_in(lo, hi));
  return v != 0 ? v : std::int16_t{1};
}

// Blocks that reach every path of the coder: sparse and dense, empty AC,
// long runs, escape magnitudes, the int16 extremes.
std::vector<Block> vlc_test_blocks() {
  Rng rng(24);
  std::vector<Block> blocks;
  for (int i = 0; i < 200; ++i) {  // sparse, mostly table events
    Block b{};
    b[0] = static_cast<std::int16_t>(rng.next_in(-300, 300));
    const int n = static_cast<int>(rng.next_below(6));
    for (int k = 0; k < n; ++k) {
      b[1 + rng.next_below(63)] = nonzero_level(rng, -20, 20);
    }
    blocks.push_back(b);
  }
  for (int i = 0; i < 40; ++i) {  // dense: every AC level nonzero
    Block b{};
    for (auto& v : b) v = nonzero_level(rng, -40, 40);
    blocks.push_back(b);
  }
  for (const int dc : {0, 1, -1, 32767, -32768, 32767, -32768, 0}) {
    Block b{};  // all-zero AC; DC extremes chain through the predictor
    b[0] = static_cast<std::int16_t>(dc);
    blocks.push_back(b);
  }
  for (int run = 31; run <= 62; ++run) {  // long first runs, and after a level
    Block b{};
    set_scan(b, 1 + run, run % 2 ? 3 : -5);
    blocks.push_back(b);
    if (run <= 61) {
      Block c{};
      set_scan(c, 1, 2);
      set_scan(c, 2 + run, -1);
      blocks.push_back(c);
    }
  }
  for (int i = 0; i < 60; ++i) {  // escape magnitudes, both signs
    Block b{};
    const int mag = i < 2 ? 16 + i : static_cast<int>(rng.next_in(17, 32767));
    const int pos = 1 + static_cast<int>(rng.next_below(63));
    set_scan(b, pos, i % 2 ? -mag : mag);
    set_scan(b, 63, nonzero_level(rng, -16, 16));
    blocks.push_back(b);
  }
  Block extremes{};
  extremes[0] = -32768;
  set_scan(extremes, 1, -32768);
  set_scan(extremes, 2, 32767);
  set_scan(extremes, 40, -32768);
  blocks.push_back(extremes);
  return blocks;
}

TEST(Vlc, EncodeMatchesReferenceWalkBitForBit) {
  const auto blocks = vlc_test_blocks();
  for (const bool code_dc : {true, false}) {
    common::BitWriter fast, reference;
    std::int16_t fast_pred = 0, reference_pred = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const auto got = encode_block(blocks[i], code_dc, fast_pred, fast);
      const auto want =
          reference_encode_block(blocks[i], code_dc, reference_pred, reference);
      ASSERT_EQ(got.symbols, want.symbols) << "block " << i;
      ASSERT_EQ(got.bits, want.bits) << "block " << i;
      ASSERT_EQ(fast_pred, reference_pred) << "block " << i;
      ASSERT_EQ(fast.bit_count(), reference.bit_count()) << "block " << i;
    }
    const auto bytes = fast.take();
    ASSERT_EQ(bytes, reference.take()) << "code_dc " << code_dc;

    common::BitReader r(bytes);
    std::int16_t dc_pred = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      Block decoded{};
      ASSERT_TRUE(decode_block(r, code_dc, dc_pred, decoded)) << "block " << i;
      ASSERT_EQ(decoded, blocks[i]) << "block " << i;
    }
    EXPECT_EQ(dc_pred, code_dc ? blocks.back()[0] : 0);
  }
}

// A crafted block: DC 0, then (run, level) events, each escape-coded
// where the table has no symbol for it; {0, 0} is the EOB.
void put_events(common::BitWriter& w, const std::vector<entropy::RunLevel>& events) {
  const auto& table = default_vlc_table();
  w.put_se(0);
  for (const auto& e : events) {
    const int symbol = entropy::run_level_to_symbol(e);
    table.encode(static_cast<std::size_t>(symbol), w);
    if (symbol == entropy::kEscapeSymbol) {
      w.put_bits(e.run, 6);
      w.put_se(e.level);
    } else if (symbol != entropy::kEobSymbol) {
      w.put_bit(e.level < 0 ? 1 : 0);
    }
  }
}

bool decodes(const std::vector<std::uint8_t>& bytes, bool code_dc = false,
             std::int16_t dc_pred = 0) {
  common::BitReader r(bytes);
  Block levels{};
  return decode_block(r, code_dc, dc_pred, levels);
}

TEST(Vlc, MissingEobFailsDecode) {
  // Pad the last byte with ones: in a canonical code a run of ones is a
  // codeword only at the longest length, so the padding cannot complete a
  // symbol and the block just ends.
  const auto lengths = default_vlc_table().lengths();
  ASSERT_GT(*std::max_element(lengths.begin(), lengths.end()), 7);
  const auto ones_padded = [](common::BitWriter& w) {
    const std::size_t bits = w.bit_count();
    auto bytes = w.take();
    const auto pad = static_cast<unsigned>(bytes.size() * 8 - bits);
    if (pad > 0) bytes.back() |= static_cast<std::uint8_t>((1u << pad) - 1);
    return bytes;
  };
  common::BitWriter with_eob, without_eob;
  put_events(with_eob, {{0, 5}, {2, -3}, {0, 0}});
  put_events(without_eob, {{0, 5}, {2, -3}});
  EXPECT_TRUE(decodes(ones_padded(with_eob)));
  EXPECT_FALSE(decodes(ones_padded(without_eob)));
}

TEST(Vlc, OverflowingRunFailsDecode) {
  common::BitWriter w;
  put_events(w, {{63, 5}, {10, 2}, {0, 0}});
  EXPECT_FALSE(decodes(w.take()));
}

TEST(Vlc, MoreThan63EventsFailDecode) {
  // 63 level-1 events fill the block; a 64th is one too many.
  const auto level_ones = [](std::size_t n) {
    std::vector<entropy::RunLevel> events(n, entropy::RunLevel{0, 1});
    events.push_back({0, 0});
    common::BitWriter w;
    put_events(w, events);
    return w.take();
  };
  EXPECT_TRUE(decodes(level_ones(63)));
  EXPECT_FALSE(decodes(level_ones(64)));
}

TEST(Vlc, ZeroOrOutOfRangeEscapeLevelFailsDecode) {
  const auto escaped = [](std::int32_t level) {
    const auto& table = default_vlc_table();
    common::BitWriter w;
    w.put_se(0);
    table.encode(entropy::kEscapeSymbol, w);
    w.put_bits(3, 6);
    w.put_se(level);
    table.encode(entropy::kEobSymbol, w);
    return w.take();
  };
  EXPECT_TRUE(decodes(escaped(40)));
  EXPECT_TRUE(decodes(escaped(-32768)));
  EXPECT_FALSE(decodes(escaped(0)));
  EXPECT_FALSE(decodes(escaped(32768)));
}

TEST(Vlc, OutOfRangeDcFailsDecode) {
  const auto dc_block = [](std::int32_t dc) {
    common::BitWriter w;
    w.put_se(dc);
    default_vlc_table().encode(entropy::kEobSymbol, w);
    return w.take();
  };
  EXPECT_TRUE(decodes(dc_block(-32768)));
  EXPECT_FALSE(decodes(dc_block(32768)));
  EXPECT_FALSE(decodes(dc_block(-32769)));
  EXPECT_TRUE(decodes(dc_block(1), /*code_dc=*/true, /*dc_pred=*/32766));
  EXPECT_FALSE(decodes(dc_block(1), /*code_dc=*/true, /*dc_pred=*/32767));
  EXPECT_FALSE(decodes(dc_block(-1), /*code_dc=*/true, /*dc_pred=*/-32768));
}

// -------------------------------------------------------------------- codec

EncoderConfig small_config() {
  EncoderConfig c;
  c.width = 64;
  c.height = 64;
  c.gop_size = 6;
  c.qscale = 6;
  c.search_range = 8;
  return c;
}

std::vector<Frame> test_sequence(int n, int w = 64, int h = 64) {
  std::vector<Frame> frames;
  const auto scene = scene_low_motion(42);
  for (int i = 0; i < n; ++i)
    frames.push_back(SyntheticVideo::render(w, h, scene, i));
  return frames;
}

TEST(Codec, IntraRoundTripQuality) {
  auto cfg = small_config();
  cfg.gop_size = 1;  // all intra
  cfg.qscale = 4;
  VideoEncoder enc(cfg);
  VideoDecoder dec;
  const auto frames = test_sequence(3);
  for (const auto& f : frames) {
    const auto encoded = enc.encode(f);
    EXPECT_EQ(encoded.type, FrameType::kIntra);
    auto decoded = dec.decode(encoded.bytes);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_GT(psnr_luma(f, decoded.value()), 32.0);
  }
}

TEST(Codec, DecoderMatchesEncoderReconstructionExactly) {
  // The drift-free invariant of the Fig. 1 loop: the encoder's local
  // decode must be bit-exact with the real decoder, frame after frame.
  VideoEncoder enc(small_config());
  VideoDecoder dec;
  for (const auto& f : test_sequence(8)) {
    const auto encoded = enc.encode(f);
    auto decoded = dec.decode(encoded.bytes);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), enc.reconstructed());
  }
}

TEST(Codec, ReconstructRoundsLikeRoundHalfAway) {
  // reconstruct's vectorized store equals clamp_u8(round_half_away(r + p))
  // pixel for pixel: at, just below and just above every half, at signed
  // zero, outside [0, 255], where floats have no fraction bits left, and
  // over more than a million random (residual, prediction) pairs.
  const auto oracle = [](float r, std::uint8_t p) {
    return common::clamp_u8(common::round_half_away(r + p));
  };
  std::vector<std::pair<float, std::uint8_t>> pairs;
  // r + p lands on `sum` exactly, and on its float neighbours when p = 0.
  const auto around = [&](float sum) {
    for (const std::uint8_t p : {0, 1, 127, 255}) {
      const float r = sum - static_cast<float>(p);
      pairs.emplace_back(r, p);
      pairs.emplace_back(std::nextafter(r, -INFINITY), p);
      pairs.emplace_back(std::nextafter(r, INFINITY), p);
    }
  };
  for (int k = -300; k <= 300; ++k) {
    around(static_cast<float>(k) + 0.5f);
    around(static_cast<float>(k));
  }
  for (const float sum :
       {-0.0f, -1e-30f, 1e-30f, -0.75f, 255.5f, 256.0f, 300.25f, 8388608.0f,
        -8388608.0f, 8388607.5f, -8388607.5f, 16777216.0f, -16777216.0f,
        1e6f, -1e6f, 1e6f + 0.5f, -1e6f - 0.5f, 1e9f, -1e9f}) {
    around(sum);
  }
  pairs.emplace_back(-0.0f, 0);
  Rng rng(61);
  constexpr std::size_t kRandom = 1u << 20;
  for (std::size_t i = 0; i < kRandom; ++i) {
    const auto p = static_cast<std::uint8_t>(rng.next_below(256));
    float r = 0.0f;
    switch (rng.next_below(4)) {
      case 0:  // any residual the IDCT gives
        r = static_cast<float>(rng.next_double_in(-300.0, 300.0));
        break;
      case 1:  // integers and halves
        r = static_cast<float>(rng.next_in(-600, 600)) * 0.5f;
        break;
      case 2:  // the float just beside an integer or a half
        r = std::nextafter(static_cast<float>(rng.next_in(-600, 600)) * 0.5f,
                           rng.next_below(2) != 0 ? INFINITY : -INFINITY);
        break;
      default:  // small residuals on any prediction
        r = static_cast<float>(rng.next_double_in(-1.0, 1.0));
        break;
    }
    pairs.emplace_back(r, p);
  }

  // Lay the pairs out as a plane's block-linear residual and prediction.
  constexpr int kW = 1024;
  const int h = static_cast<int>((pairs.size() + kW * 8 - 1) / (kW * 8)) * 8;
  const std::size_t n = static_cast<std::size_t>(kW) * h;
  ASSERT_GE(n, std::size_t{1000000});
  std::vector<float> residual(n, 0.0f);
  Plane pred(kW, h, 0), out(kW, h);
  const auto pixel = [](std::size_t i) {
    const std::size_t block = i / 64, at = i % 64;
    const std::size_t per_row = kW / 8;
    return std::pair{static_cast<int>((block % per_row) * 8 + at % 8),
                     static_cast<int>((block / per_row) * 8 + at / 8)};
  };
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [x, y] = pixel(i);
    residual[i] = pairs[i].first;
    pred.set(x, y, pairs[i].second);
  }
  reconstruct(residual, pred, out);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [x, y] = pixel(i);
    ASSERT_EQ(out.at(x, y), oracle(residual[i], pred.at(x, y)))
        << "r = " << residual[i] << " (bits " << std::hex
        << std::bit_cast<std::uint32_t>(residual[i]) << std::dec
        << "), p = " << int{pred.at(x, y)};
  }
  // The Fig. 1 graph adds in place: `out` may be `pred` itself.
  Plane in_place = pred;
  reconstruct(residual, in_place, in_place);
  EXPECT_EQ(in_place, out);
}

TEST(Codec, GopStructure) {
  VideoEncoder enc(small_config());  // gop_size = 6
  std::vector<FrameType> types;
  for (const auto& f : test_sequence(13)) types.push_back(enc.encode(f).type);
  for (int i = 0; i < 13; ++i) {
    EXPECT_EQ(types[static_cast<std::size_t>(i)],
              i % 6 == 0 ? FrameType::kIntra : FrameType::kPredicted)
        << "frame " << i;
  }
}

TEST(Codec, PFramesSmallerThanIFramesOnStaticContent) {
  VideoEncoder enc(small_config());
  // Integer pan + rich texture: intra coding must spend bits on the
  // texture every frame, while MC finds it in the reference for free.
  SceneParams scene = scene_high_detail(42);
  scene.pan_x = 2.0;  // exactly representable by integer motion vectors
  scene.noise_sigma = 0.5;
  std::vector<Frame> frames;
  for (int i = 0; i < 6; ++i)
    frames.push_back(SyntheticVideo::render(64, 64, scene, i));
  std::size_t i_bits = 0, p_bits = 0;
  int p_count = 0;
  for (const auto& f : frames) {
    const auto e = enc.encode(f);
    if (e.type == FrameType::kIntra) {
      i_bits = e.bytes.size() * 8;
    } else {
      p_bits += e.bytes.size() * 8;
      ++p_count;
    }
  }
  ASSERT_GT(p_count, 0);
  // §3: motion estimation/compensation reduce the number of bits. (The
  // stronger "greatly reduce" claim is exercised against a no-motion
  // encoder in MotionSearchReducesResidualBits.)
  const double p_mean = static_cast<double>(p_bits) / p_count;
  EXPECT_LT(p_mean, 0.8 * static_cast<double>(i_bits));
}

TEST(Codec, MotionSearchReducesResidualBits) {
  auto with_me = small_config();
  with_me.me_algo = SearchAlgorithm::kFullSearch;
  auto without_me = small_config();
  without_me.me_algo = SearchAlgorithm::kNone;
  // Strong panning makes ME matter.
  std::vector<Frame> frames;
  auto scene = scene_high_motion(7);
  for (int i = 0; i < 6; ++i)
    frames.push_back(SyntheticVideo::render(64, 64, scene, i));

  auto total_p_bits = [&](const EncoderConfig& cfg) {
    VideoEncoder enc(cfg);
    std::size_t bits = 0;
    for (const auto& f : frames) {
      const auto e = enc.encode(f);
      if (e.type == FrameType::kPredicted) bits += e.bytes.size() * 8;
    }
    return bits;
  };
  EXPECT_LT(total_p_bits(with_me), total_p_bits(without_me));
}

TEST(Codec, RequestIntraForcesIFrame) {
  VideoEncoder enc(small_config());
  const auto frames = test_sequence(4);
  enc.encode(frames[0]);
  enc.encode(frames[1]);
  enc.request_intra();
  EXPECT_EQ(enc.encode(frames[2]).type, FrameType::kIntra);
  EXPECT_EQ(enc.encode(frames[3]).type, FrameType::kPredicted);
}

TEST(Codec, RateControlTracksBudget) {
  auto cfg = small_config();
  cfg.rate_control = true;
  cfg.bitrate_bps = 400000.0;
  cfg.fps = 30.0;
  VideoEncoder enc(cfg);
  std::size_t total_bits = 0;
  const int n = 30;
  std::vector<Frame> frames;
  const auto scene = scene_high_detail(8);
  for (int i = 0; i < n; ++i)
    frames.push_back(SyntheticVideo::render(64, 64, scene, i));
  for (const auto& f : frames) total_bits += enc.encode(f).bytes.size() * 8;
  const double achieved_bps = static_cast<double>(total_bits) / (n / 30.0);
  // Rate control is coarse but must land within 2x of target.
  EXPECT_LT(achieved_bps, cfg.bitrate_bps * 2.0);
  EXPECT_GT(achieved_bps, cfg.bitrate_bps * 0.2);
}

TEST(Codec, HigherQscaleFewerBitsLowerQuality) {
  auto fine = small_config();
  fine.qscale = 2;
  fine.gop_size = 1;
  auto coarse = small_config();
  coarse.qscale = 24;
  coarse.gop_size = 1;
  const auto frames = test_sequence(2);

  auto run = [&](const EncoderConfig& cfg) {
    VideoEncoder enc(cfg);
    VideoDecoder dec;
    std::size_t bits = 0;
    double psnr_sum = 0;
    for (const auto& f : frames) {
      const auto e = enc.encode(f);
      bits += e.bytes.size() * 8;
      auto d = dec.decode(e.bytes);
      psnr_sum += psnr_luma(f, d.value());
    }
    return std::pair{bits, psnr_sum / static_cast<double>(frames.size())};
  };
  const auto [fine_bits, fine_psnr] = run(fine);
  const auto [coarse_bits, coarse_psnr] = run(coarse);
  EXPECT_GT(fine_bits, coarse_bits);
  EXPECT_GT(fine_psnr, coarse_psnr + 3.0);
}

TEST(Codec, StageOpsPopulated) {
  VideoEncoder enc(small_config());
  const auto frames = test_sequence(2);
  const auto e0 = enc.encode(frames[0]);
  EXPECT_GT(e0.ops.dct_blocks, 0u);
  EXPECT_GT(e0.ops.idct_blocks, 0u);
  EXPECT_GT(e0.ops.vlc_symbols, 0u);
  EXPECT_EQ(e0.ops.me_sad_ops, 0u);  // intra frame: no motion search
  const auto e1 = enc.encode(frames[1]);
  EXPECT_GT(e1.ops.me_sad_ops, 0u);
  EXPECT_GT(e1.ops.mc_pixels, 0u);
}

TEST(Codec, PFrameWithoutReferenceFails) {
  VideoEncoder enc(small_config());
  VideoDecoder dec;
  const auto frames = test_sequence(2);
  enc.encode(frames[0]);                      // I
  const auto p = enc.encode(frames[1]);       // P
  ASSERT_EQ(p.type, FrameType::kPredicted);
  const auto r = dec.decode(p.bytes);         // decoder never saw the I frame
  EXPECT_FALSE(r.is_ok());
}

TEST(Codec, TruncatedStreamFailsGracefully) {
  VideoEncoder enc(small_config());
  const auto frames = test_sequence(1);
  auto e = enc.encode(frames[0]);
  e.bytes.resize(e.bytes.size() / 3);
  VideoDecoder dec;
  EXPECT_FALSE(dec.decode(e.bytes).is_ok());
}

TEST(Codec, EmptyStreamFails) {
  VideoDecoder dec;
  EXPECT_FALSE(dec.decode({}).is_ok());
}

// The frame header carries macroblock counts, so the encoder takes whole
// macroblocks only: a partial one used to read and write past the chroma
// planes (72x72) or code a frame the decoder read back at another size
// (72x64 decoded as 64x64).
TEST(VideoCodec, RejectsFramesThatAreNotWholeMacroblocks) {
  const struct {
    int width, height;
  } bad[] = {{72, 72}, {72, 64}, {64, 72}, {0, 16}, {-16, 16}};
  for (const auto size : bad) {
    EncoderConfig cfg;
    cfg.width = size.width;
    cfg.height = size.height;
    EXPECT_THROW(VideoEncoder enc(cfg), std::invalid_argument)
        << size.width << "x" << size.height;
    EXPECT_FALSE(check_frame_size(size.width, size.height).is_ok());
  }
  // A frame of another size than the configured one is rejected too.
  VideoEncoder enc(small_config());  // 64x64
  EXPECT_THROW(enc.encode(SyntheticVideo::render(72, 72, scene_flat(1), 0)),
               std::invalid_argument);
  EXPECT_THROW(enc.encode(SyntheticVideo::render(80, 64, scene_flat(1), 0)),
               std::invalid_argument);
  EXPECT_EQ(enc.encode(test_sequence(1)[0]).type, FrameType::kIntra);
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, PsnrIdenticalIsCapped) {
  const Frame f = SyntheticVideo::render(32, 32, scene_flat(1), 0);
  EXPECT_DOUBLE_EQ(psnr_luma(f, f), 99.0);
}

TEST(Metrics, PsnrDecreasesWithNoise) {
  const Frame f = SyntheticVideo::render(32, 32, scene_flat(2), 0);
  Rng rng(3);
  Frame noisy1 = f, noisy2 = f;
  for (int y = 0; y < noisy1.y().height(); ++y)
    for (auto& p : noisy1.y().row_span(y))
      p = common::clamp_u8(p + static_cast<int>(rng.next_in(-2, 2)));
  for (int y = 0; y < noisy2.y().height(); ++y)
    for (auto& p : noisy2.y().row_span(y))
      p = common::clamp_u8(p + static_cast<int>(rng.next_in(-20, 20)));
  EXPECT_GT(psnr_luma(f, noisy1), psnr_luma(f, noisy2));
}

TEST(Metrics, SsimIdenticalIsOne) {
  const Frame f = SyntheticVideo::render(32, 32, scene_high_detail(4), 0);
  EXPECT_NEAR(global_ssim(f.y(), f.y()), 1.0, 1e-9);
}

TEST(Metrics, MseOfKnownDifference) {
  Plane a(4, 4, 100), b(4, 4, 110);
  EXPECT_DOUBLE_EQ(mse(a, b), 100.0);
}

// ------------------------------------------------------------ wavelet codec

TEST(WaveletCodec, LosslessAtUnitStep) {
  // qstep 1 over the reversible 5/3 transform: bit-exact reconstruction.
  const auto frame = SyntheticVideo::render(64, 64, scene_high_detail(71), 0);
  const WaveletCodecConfig cfg{3, 1};
  auto encoded = wavelet_encode_plane(frame.y(), cfg);
  ASSERT_TRUE(encoded.is_ok());
  auto decoded = wavelet_decode_plane(encoded.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), frame.y());
}

class WaveletQstepSweep : public ::testing::TestWithParam<int> {};

TEST_P(WaveletQstepSweep, RoundTripQualityReasonable) {
  const auto frame = SyntheticVideo::render(64, 64, scene_high_detail(72), 0);
  const WaveletCodecConfig cfg{3, GetParam()};
  auto encoded = wavelet_encode_plane(frame.y(), cfg);
  ASSERT_TRUE(encoded.is_ok());
  auto decoded = wavelet_decode_plane(encoded.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_GT(psnr(frame.y(), decoded.value()), 26.0) << "qstep " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Steps, WaveletQstepSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(WaveletCodec, RateDistortionMonotone) {
  const auto frame = SyntheticVideo::render(64, 64, scene_high_detail(73), 0);
  std::size_t prev_bytes = static_cast<std::size_t>(-1);
  double prev_psnr = 1e9;
  for (const int qstep : {1, 4, 16, 64}) {
    auto encoded = wavelet_encode_plane(frame.y(), WaveletCodecConfig{3, qstep});
    ASSERT_TRUE(encoded.is_ok());
    auto decoded = wavelet_decode_plane(encoded.value());
    ASSERT_TRUE(decoded.is_ok());
    const double p = psnr(frame.y(), decoded.value());
    EXPECT_LT(encoded.value().size(), prev_bytes);
    EXPECT_LE(p, prev_psnr + 1e-9);
    prev_bytes = encoded.value().size();
    prev_psnr = p;
  }
}

TEST(WaveletCodec, LosslessBeatsRawSize) {
  // Even lossless, the transform + zero-run coding compresses natural
  // content below 8 bits/pixel.
  const auto frame = SyntheticVideo::render(64, 64, scene_low_motion(74), 0);
  auto encoded = wavelet_encode_plane(frame.y(), WaveletCodecConfig{3, 1});
  ASSERT_TRUE(encoded.is_ok());
  EXPECT_LT(encoded.value().size(), 64u * 64u);
}

TEST(WaveletCodec, RejectsBadConfigs) {
  const Plane p(48, 48);  // not divisible by 2^3... 48/8 = 6, actually fine
  EXPECT_TRUE(wavelet_encode_plane(p, WaveletCodecConfig{3, 1}).is_ok());
  const Plane odd(50, 50);  // 50 % 8 != 0
  EXPECT_FALSE(wavelet_encode_plane(odd, WaveletCodecConfig{3, 1}).is_ok());
  EXPECT_FALSE(wavelet_encode_plane(p, WaveletCodecConfig{0, 1}).is_ok());
  EXPECT_FALSE(wavelet_encode_plane(p, WaveletCodecConfig{3, 0}).is_ok());
}

TEST(WaveletCodec, CorruptStreamRejected) {
  const auto frame = SyntheticVideo::render(32, 32, scene_flat(75), 0);
  auto encoded = wavelet_encode_plane(frame.y(), WaveletCodecConfig{2, 2});
  ASSERT_TRUE(encoded.is_ok());
  auto bytes = encoded.value();
  bytes[0] ^= 0xFF;  // magic
  EXPECT_FALSE(wavelet_decode_plane(bytes).is_ok());
  EXPECT_FALSE(wavelet_decode_plane({}).is_ok());
  auto truncated = encoded.value();
  truncated.resize(truncated.size() / 4);
  // Truncation may decode fewer coefficients or fail; must not crash, and
  // if it fails it reports corrupt data.
  const auto r = wavelet_decode_plane(truncated);
  if (!r.is_ok()) {
    EXPECT_EQ(r.status().code(), common::StatusCode::kCorruptData);
  }
}

// ---------------------------------------------------------------- transcode

TEST(Transcode, GenerationalQualityLoss) {
  // §3: "each generation of transcoding reduces image quality."
  const auto frames = test_sequence(4);
  auto cfg_a = small_config();
  cfg_a.qscale = 6;
  auto cfg_b = small_config();
  cfg_b.qscale = 6;
  cfg_b.alternate_standard = true;
  const auto points = generation_study(frames, 5, cfg_a, cfg_b);
  ASSERT_EQ(points.size(), 5u);
  // Quality after 5 generations is strictly worse than after 1.
  EXPECT_LT(points[4].psnr_db, points[0].psnr_db - 0.2);
  // And the first generation is itself lossy.
  EXPECT_LT(points[0].psnr_db, 99.0);
  // Degradation is (weakly) monotone within tolerance.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].psnr_db, points[i - 1].psnr_db + 0.3);
  }
}

TEST(Transcode, SameStandardIsNearlyIdempotent) {
  // Re-encoding with the identical quantizer mostly re-makes the same
  // decisions: generation 2 loses far less than generation 1.
  const auto frames = test_sequence(3);
  const auto cfg = small_config();
  const auto points = generation_study(frames, 3, cfg, cfg);
  ASSERT_EQ(points.size(), 3u);
  const double loss1 = 99.0 - points[0].psnr_db;
  const double loss2 = points[0].psnr_db - points[1].psnr_db;
  EXPECT_LT(loss2, loss1 * 0.5);
}

}  // namespace
}  // namespace mmsoc::video
