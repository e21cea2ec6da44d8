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

// The most candidates one kernel call scores: a full-search row at the
// widest range kReferenceBorder serves in place. Wider rows go in chunks.
constexpr int kMaxBatch = 2 * kReferenceBorder + 1;

// One macroblock's search: the current window, gathered once, scored
// against one search step's candidate vectors per kernel call.
class BlockSearch {
 public:
  BlockSearch(const Plane& cur, const Plane& ref, int bx, int by,
              int range) noexcept
      : ref_(ref), bx_(bx), by_(by),
        score_(dsp::kernels().sad16_candidates),
        lo_x_(-ref.border() - bx),
        lo_y_(-ref.border() - by),
        hi_x_(ref.width() + ref.border() - kMacroblockSize - bx),
        hi_y_(ref.height() + ref.border() - kMacroblockSize - by),
        in_place_(inside(-range, -range) && inside(range, range)),
        cur_(window16(cur, bx, by, cur_win_, cur_stride_)) {}

  // sads[i] = SAD of vector mv[i] for i < n (n <= kMaxBatch). The windows
  // are read in place when all of them lie inside the reference's border;
  // otherwise each is gathered edge-clamped into scratch, so every window
  // of one call shares one stride.
  void score(const MotionVector* mv, int n, std::uint32_t* sads) noexcept {
    if (n == 0) return;
    evaluations_ += static_cast<std::uint32_t>(n);
    const std::uint8_t* wins[kMaxBatch];
    const bool in_place =
        in_place_ || std::all_of(mv, mv + n, [&](const MotionVector& v) {
          return inside(v.dx, v.dy);
        });
    if (!in_place) {
      gather(mv, n, wins);
      score_(cur_, cur_stride_, wins, kMacroblockSize, n, sads);
      return;
    }
    const std::uint8_t* origin = ref_.row(by_) + bx_;
    const std::ptrdiff_t stride = ref_.stride();
    for (int i = 0; i < n; ++i) wins[i] = origin + mv[i].dy * stride + mv[i].dx;
    score_(cur_, cur_stride_, wins, stride, n, sads);
  }

  std::uint64_t score_at(MotionVector mv) noexcept {
    std::uint32_t sad = 0;
    score(&mv, 1, &sad);
    return sad;
  }

  [[nodiscard]] std::uint32_t evaluations() const noexcept {
    return evaluations_;
  }

 private:
  [[nodiscard]] bool inside(int dx, int dy) const noexcept {
    return dx >= lo_x_ && dx <= hi_x_ && dy >= lo_y_ && dy <= hi_y_;
  }

  void gather(const MotionVector* mv, int n,
              const std::uint8_t** wins) noexcept {
    for (int i = 0; i < n; ++i) {
      std::uint8_t* dst = ref_win_ + i * kMacroblockSize * kMacroblockSize;
      for (int r = 0; r < kMacroblockSize; ++r) {
        copy_clamped_row(ref_, bx_ + mv[i].dx, by_ + mv[i].dy + r,
                         kMacroblockSize, dst + r * kMacroblockSize);
      }
      wins[i] = dst;
    }
  }

  const Plane& ref_;
  int bx_, by_;
  decltype(dsp::KernelTable::sad16_candidates) score_;
  // The vectors whose window lies inside the reference's border.
  int lo_x_, lo_y_, hi_x_, hi_y_;
  bool in_place_;  // every window of the search range lies in the border
  std::uint32_t evaluations_ = 0;
  std::ptrdiff_t cur_stride_ = 0;
  alignas(64) std::uint8_t cur_win_[kMacroblockSize * kMacroblockSize];
  const std::uint8_t* cur_;
  alignas(64) std::uint8_t
      ref_win_[kMaxBatch * kMacroblockSize * kMacroblockSize];
};

MotionResult full_search(BlockSearch& s, int range) noexcept {
  MotionResult best;
  best.sad = ~std::uint64_t{0};
  MotionVector mv[kMaxBatch];
  std::uint32_t sads[kMaxBatch];
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx0 = -range; dx0 <= range; dx0 += kMaxBatch) {
      const int n = std::min(kMaxBatch, range - dx0 + 1);
      for (int i = 0; i < n; ++i) mv[i] = MotionVector{dx0 + i, dy};
      s.score(mv, n, sads);
      for (int i = 0; i < n; ++i) {
        // Prefer shorter vectors on ties: cheaper to code, matches encoders.
        if (sads[i] < best.sad ||
            (sads[i] == best.sad &&
             std::abs(mv[i].dx) + std::abs(mv[i].dy) <
                 std::abs(best.mv.dx) + std::abs(best.mv.dy))) {
          best.mv = mv[i];
          best.sad = sads[i];
        }
      }
    }
  }
  best.evaluations = s.evaluations();
  return best;
}

// One step of a pattern search around `center`: the pattern's points
// within `range`, scored in one call. Moves `center` and `sad` to the
// first strictly better point, if any.
template <std::size_t N>
void pattern_step(BlockSearch& s, const std::array<MotionVector, N>& pattern,
                  int scale, int range, MotionVector& center,
                  std::uint64_t& sad) noexcept {
  MotionVector mv[N];
  std::uint32_t sads[N];
  int n = 0;
  for (const auto& d : pattern) {
    const MotionVector v{center.dx + d.dx * scale, center.dy + d.dy * scale};
    if (std::abs(v.dx) > range || std::abs(v.dy) > range) continue;
    mv[n++] = v;
  }
  s.score(mv, n, sads);
  MotionVector next = center;
  for (int i = 0; i < n; ++i) {
    if (sads[i] < sad) {
      sad = sads[i];
      next = mv[i];
    }
  }
  center = next;
}

// The eight neighbours of a three-step step, in raster order.
constexpr std::array<MotionVector, 8> kSquare = {
    MotionVector{-1, -1}, MotionVector{0, -1}, MotionVector{1, -1},
    MotionVector{-1, 0},  MotionVector{1, 0},  MotionVector{-1, 1},
    MotionVector{0, 1},   MotionVector{1, 1}};

MotionResult three_step_search(BlockSearch& s, int range) noexcept {
  MotionResult best;
  best.sad = s.score_at(MotionVector{});
  // The initial step must satisfy step + step/2 + ... + 1 >= range or the
  // corners of the search window are unreachable; the smallest power of
  // two with 2*step - 1 >= range achieves that (a plain range/2 truncates:
  // range 5 gave steps 2,1 with maximum reach 3).
  int step = 1;
  while (2 * step - 1 < range) step *= 2;
  for (; step >= 1; step /= 2) {
    pattern_step(s, kSquare, step, range, best.mv, best.sad);
  }
  best.evaluations = s.evaluations();
  return best;
}

MotionResult diamond_search(BlockSearch& s, int range) noexcept {
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
  best.sad = s.score_at(MotionVector{});
  // Guard against pathological loops on flat content.
  for (int iter = 0; iter < 4 * range + 8; ++iter) {
    const MotionVector center = best.mv;
    pattern_step(s, kLarge, 1, range, best.mv, best.sad);
    if (best.mv == center) break;  // center is best: refine
  }
  // Small-diamond refinement: argmin over the four fixed neighbours of the
  // converged center. The center must not move mid-step, or later
  // candidates are measured around a drifted point.
  pattern_step(s, kSmall, 1, range, best.mv, best.sad);
  best.evaluations = s.evaluations();
  return best;
}

}  // namespace

MotionResult estimate_block(const Plane& cur, const Plane& ref, int bx, int by,
                            int range, SearchAlgorithm algo) noexcept {
  BlockSearch s(cur, ref, bx, by, range);
  switch (algo) {
    case SearchAlgorithm::kFullSearch:
      return full_search(s, range);
    case SearchAlgorithm::kThreeStep:
      return three_step_search(s, range);
    case SearchAlgorithm::kDiamond:
      return diamond_search(s, range);
    case SearchAlgorithm::kNone:
      break;
  }
  MotionResult r;
  r.sad = s.score_at(MotionVector{});
  r.evaluations = s.evaluations();
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
