// Zero-allocation data plane: once the per-edge free rings are warm, a
// steady-state pipeline iteration performs no heap allocation at all.
//
// This is its own test binary because it replaces the global operator
// new/delete with a counting allocator. Steady state is isolated by
// differencing two runs of different lengths: engine setup, free-ring
// warm-up and teardown allocate the same in both runs and cancel in the
// margin, so only per-iteration allocations remain.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "mpsoc/taskgraph.h"
#include "runtime/engine.h"
#include "runtime/pipelines.h"

// GCC can't see that the replaced operator new below is malloc-backed and
// flags the free()-based deletes as mismatched — a known false positive
// when a TU replaces the global allocator.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mmsoc::runtime {
namespace {

constexpr std::size_t kStages = 8;
constexpr std::size_t kWorkers = 2;

// Heap allocations of one complete run_pipeline call over a small-payload
// synthetic chain (8-byte tokens, near-free bodies), so the engine's own
// per-iteration costs are all that is left to allocate.
std::uint64_t allocations_of_run(std::uint64_t iterations) {
  auto pipe = make_synthetic_chain(kStages, 25.0);
  mpsoc::Mapping mapping(kStages);
  for (std::size_t t = 0; t < kStages; ++t) mapping[t] = t % kWorkers;
  EngineOptions opts;
  opts.workers = kWorkers;
  opts.channel_capacity = 16;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const auto report = run_pipeline(pipe.graph, mapping, iterations, opts);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_TRUE(report.is_ok()) << report.status().to_text();
  EXPECT_EQ(pipe.sink->tokens.load(), iterations);
  return after - before;
}

TEST(DataPlane, SteadyStateIterationsDoNotAllocate) {
  constexpr std::uint64_t kShort = 300;
  constexpr std::uint64_t kLong = 3000;
  const std::uint64_t short_allocs = allocations_of_run(kShort);
  const std::uint64_t long_allocs = allocations_of_run(kLong);
  const double marginal = static_cast<double>(long_allocs) -
                          static_cast<double>(short_allocs);
  const double per_iteration = marginal / static_cast<double>(kLong - kShort);
  EXPECT_LT(per_iteration, 0.01)
      << short_allocs << " allocations over " << kShort << " iterations, "
      << long_allocs << " over " << kLong;
}

}  // namespace
}  // namespace mmsoc::runtime
