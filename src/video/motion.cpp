#include "video/motion.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>

#include "common/mathutil.h"
#include "dsp/dispatch.h"

namespace mmsoc::video {

namespace {

// Copy `w` pixels of row `y` of `p`, starting at column `x`, to `dst` with
// both coordinates edge-clamped. A span inside the plane's border is one
// memcpy of its own (edge-extended) row. Beyond the border the left
// overhang repeats column 0, the inside is one memcpy, and the right
// overhang repeats the last column.
void copy_clamped_row(const Plane& p, int x, int y, int w,
                      std::uint8_t* dst) noexcept {
  const int b = p.border();
  if (x >= -b && x + w <= p.width() + b && y >= -b && y < p.height() + b) {
    std::memcpy(dst, p.row(y) + x, static_cast<std::size_t>(w));
    return;
  }
  const std::uint8_t* src = p.row(std::clamp(y, 0, p.height() - 1));
  const int lo = std::clamp(-x, 0, w);              // columns left of the plane
  const int hi = std::clamp(p.width() - x, lo, w);  // first column right of it
  std::memset(dst, src[0], static_cast<std::size_t>(lo));
  if (hi > lo) {
    std::memcpy(dst + lo, src + x + lo, static_cast<std::size_t>(hi - lo));
  }
  std::memset(dst + hi, src[p.width() - 1], static_cast<std::size_t>(w - hi));
}

// The 16x16 window of `p` at (x, y) as (pointer, stride): the plane's own
// rows when the window lies inside its border (inside the visible pixels
// for a plane without one), else its edge-clamped copy gathered into
// `scratch` (kMacroblockSize^2 bytes).
const std::uint8_t* window16(const Plane& p, int x, int y,
                             std::uint8_t* scratch,
                             std::ptrdiff_t& stride) noexcept {
  const int b = p.border();
  if (x >= -b && y >= -b && x + kMacroblockSize <= p.width() + b &&
      y + kMacroblockSize <= p.height() + b) {
    stride = p.stride();
    return p.row(y) + x;
  }
  for (int r = 0; r < kMacroblockSize; ++r) {
    copy_clamped_row(p, x, y + r, kMacroblockSize,
                     scratch + r * kMacroblockSize);
  }
  stride = kMacroblockSize;
  return scratch;
}

// Motion-compensated prediction in blocks of `block` pixels into `out`:
// each block copies the edge-clamped window of `ref` displaced by its
// macroblock's vector divided by `divisor` (rounding toward zero).
void compensate_blocks(const Plane& ref, const MotionField& field, int block,
                       int divisor, Plane& out) {
  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const auto& mv =
          field.blocks[static_cast<std::size_t>(by) * field.blocks_x + bx].mv;
      const int ox = bx * block;
      const int oy = by * block;
      const int h = std::min(block, out.height() - oy);
      const int w = std::min(block, out.width() - ox);
      if (w <= 0) continue;
      const int sx = ox + mv.dx / divisor;
      const int sy = oy + mv.dy / divisor;
      for (int y = 0; y < h; ++y) {
        copy_clamped_row(ref, sx, sy + y, w, out.row(oy + y) + ox);
      }
    }
  }
}

}  // namespace

std::uint64_t sad16(const Plane& cur, const Plane& ref, int bx, int by, int dx,
                    int dy) noexcept {
  // Windows inside a plane's border are read in place; those beyond it
  // (and partial edge macroblocks of a plane without one) are gathered
  // edge-clamped into a stack block, so every SAD runs on the dispatched
  // kernel. Integer sums are exact in any order, so this equals the
  // per-pixel clamped sum.
  alignas(64) std::uint8_t cur_win[kMacroblockSize * kMacroblockSize];
  alignas(64) std::uint8_t ref_win[kMacroblockSize * kMacroblockSize];
  std::ptrdiff_t cur_stride = 0, ref_stride = 0;
  const std::uint8_t* a = window16(cur, bx, by, cur_win, cur_stride);
  const std::uint8_t* b = window16(ref, bx + dx, by + dy, ref_win, ref_stride);
  return dsp::kernels().sad16(a, cur_stride, b, ref_stride);
}

namespace {

struct Candidate {
  MotionVector mv;
  std::uint64_t sad;
};

Candidate eval(const Plane& cur, const Plane& ref, int bx, int by, int dx,
               int dy, std::uint32_t& evals) noexcept {
  ++evals;
  return Candidate{MotionVector{dx, dy}, sad16(cur, ref, bx, by, dx, dy)};
}

MotionResult full_search(const Plane& cur, const Plane& ref, int bx, int by,
                         int range) noexcept {
  MotionResult best;
  best.sad = ~std::uint64_t{0};
  std::uint32_t evals = 0;
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      const auto c = eval(cur, ref, bx, by, dx, dy, evals);
      // Prefer shorter vectors on ties: cheaper to code, matches encoders.
      if (c.sad < best.sad ||
          (c.sad == best.sad &&
           std::abs(c.mv.dx) + std::abs(c.mv.dy) <
               std::abs(best.mv.dx) + std::abs(best.mv.dy))) {
        best.mv = c.mv;
        best.sad = c.sad;
      }
    }
  }
  best.evaluations = evals;
  return best;
}

MotionResult three_step_search(const Plane& cur, const Plane& ref, int bx,
                               int by, int range) noexcept {
  MotionResult best;
  std::uint32_t evals = 0;
  int cx = 0, cy = 0;
  best.sad = sad16(cur, ref, bx, by, 0, 0);
  ++evals;
  // The initial step must satisfy step + step/2 + ... + 1 >= range or the
  // corners of the search window are unreachable; the smallest power of
  // two with 2*step - 1 >= range achieves that (a plain range/2 truncates:
  // range 5 gave steps 2,1 with maximum reach 3).
  int step = 1;
  while (2 * step - 1 < range) step *= 2;
  while (step >= 1) {
    int nx = cx, ny = cy;
    std::uint64_t nbest = best.sad;
    for (int sy = -1; sy <= 1; ++sy) {
      for (int sx = -1; sx <= 1; ++sx) {
        if (sx == 0 && sy == 0) continue;
        const int dx = cx + sx * step;
        const int dy = cy + sy * step;
        if (std::abs(dx) > range || std::abs(dy) > range) continue;
        const auto c = eval(cur, ref, bx, by, dx, dy, evals);
        if (c.sad < nbest) {
          nbest = c.sad;
          nx = dx;
          ny = dy;
        }
      }
    }
    cx = nx;
    cy = ny;
    best.sad = nbest;
    step /= 2;
  }
  best.mv = MotionVector{cx, cy};
  best.evaluations = evals;
  return best;
}

MotionResult diamond_search(const Plane& cur, const Plane& ref, int bx, int by,
                            int range) noexcept {
  // Large diamond search pattern until the center wins, then one small
  // diamond refinement (classic DS of Zhu & Ma).
  static constexpr std::array<MotionVector, 8> kLarge = {
      MotionVector{0, -2}, MotionVector{1, -1}, MotionVector{2, 0},
      MotionVector{1, 1},  MotionVector{0, 2},  MotionVector{-1, 1},
      MotionVector{-2, 0}, MotionVector{-1, -1}};
  static constexpr std::array<MotionVector, 4> kSmall = {
      MotionVector{0, -1}, MotionVector{1, 0}, MotionVector{0, 1},
      MotionVector{-1, 0}};

  MotionResult best;
  std::uint32_t evals = 0;
  int cx = 0, cy = 0;
  best.sad = sad16(cur, ref, bx, by, 0, 0);
  ++evals;

  // Guard against pathological loops on flat content.
  for (int iter = 0; iter < 4 * range + 8; ++iter) {
    int nx = cx, ny = cy;
    std::uint64_t nbest = best.sad;
    for (const auto& d : kLarge) {
      const int dx = cx + d.dx;
      const int dy = cy + d.dy;
      if (std::abs(dx) > range || std::abs(dy) > range) continue;
      const auto c = eval(cur, ref, bx, by, dx, dy, evals);
      if (c.sad < nbest) {
        nbest = c.sad;
        nx = dx;
        ny = dy;
      }
    }
    if (nx == cx && ny == cy) break;  // center is best: refine
    cx = nx;
    cy = ny;
    best.sad = nbest;
  }
  // Small-diamond refinement: argmin over the four fixed neighbours of the
  // converged center. The center must not move mid-loop, or later
  // candidates are measured around a drifted point.
  {
    int nx = cx, ny = cy;
    std::uint64_t nbest = best.sad;
    for (const auto& d : kSmall) {
      const int dx = cx + d.dx;
      const int dy = cy + d.dy;
      if (std::abs(dx) > range || std::abs(dy) > range) continue;
      const auto c = eval(cur, ref, bx, by, dx, dy, evals);
      if (c.sad < nbest) {
        nbest = c.sad;
        nx = dx;
        ny = dy;
      }
    }
    cx = nx;
    cy = ny;
    best.sad = nbest;
  }
  best.mv = MotionVector{cx, cy};
  best.evaluations = evals;
  return best;
}

}  // namespace

MotionResult estimate_block(const Plane& cur, const Plane& ref, int bx, int by,
                            int range, SearchAlgorithm algo) noexcept {
  switch (algo) {
    case SearchAlgorithm::kFullSearch:
      return full_search(cur, ref, bx, by, range);
    case SearchAlgorithm::kThreeStep:
      return three_step_search(cur, ref, bx, by, range);
    case SearchAlgorithm::kDiamond:
      return diamond_search(cur, ref, bx, by, range);
    case SearchAlgorithm::kNone:
      break;
  }
  MotionResult r;
  r.sad = sad16(cur, ref, bx, by, 0, 0);
  r.evaluations = 1;
  return r;
}

std::uint64_t MotionField::total_sad() const noexcept {
  std::uint64_t s = 0;
  for (const auto& b : blocks) s += b.sad;
  return s;
}

std::uint64_t MotionField::total_evaluations() const noexcept {
  std::uint64_t s = 0;
  for (const auto& b : blocks) s += b.evaluations;
  return s;
}

MotionField estimate_frame(const Plane& cur, const Plane& ref, int range,
                           SearchAlgorithm algo) {
  MotionField field;
  // Round up so partial edge macroblocks are estimated too (their SADs
  // edge-clamp); truncating silently dropped the right/bottom strips of
  // non-multiple-of-16 frames.
  field.blocks_x = static_cast<int>(
      common::ceil_div(cur.width(), kMacroblockSize));
  field.blocks_y = static_cast<int>(
      common::ceil_div(cur.height(), kMacroblockSize));
  field.blocks.reserve(static_cast<std::size_t>(field.blocks_x) *
                       field.blocks_y);
  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      field.blocks.push_back(estimate_block(cur, ref,
                                            bx * kMacroblockSize,
                                            by * kMacroblockSize, range, algo));
    }
  }
  return field;
}

void compensate(const Plane& ref, const MotionField& field, Plane& out) {
  compensate_blocks(ref, field, kMacroblockSize, 1, out);
}

void compensate_chroma(const Plane& ref, const MotionField& field, Plane& out) {
  compensate_blocks(ref, field, kMacroblockSize / 2, 2, out);
}

}  // namespace mmsoc::video
