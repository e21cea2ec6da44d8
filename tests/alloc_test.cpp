// Zero-allocation data plane: once the per-edge free rings are warm, a
// steady-state pipeline iteration performs no heap allocation at all.
// Bounded memory: a finished session gives back everything but its
// report, so a long-running engine's heap stays flat.
//
// This is its own test binary because it replaces the global operator
// new/delete with a counting allocator that also tracks live heap bytes.
// Steady state is isolated by differencing two runs of different
// lengths: engine setup, free-ring warm-up and teardown allocate the
// same in both runs and cancel in the margin, so only per-iteration
// allocations remain.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "mpsoc/taskgraph.h"
#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/io.h"
#include "runtime/pipelines.h"

// GCC can't see that the replaced operator new below is malloc-backed and
// flags the free()-based deletes as mismatched — a known false positive
// when a TU replaces the global allocator.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* track(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

void* counted_alloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return track(std::malloc(size != 0 ? size : 1));
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) return nullptr;
  return track(p);
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
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
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

// Back-to-back sessions on one running engine: Fig.1 encodes, then disk
// transcodes under the media server's heavy fault profile (retries, and
// boundary wakers firing after their session closed). Everything is
// built up front, so between the 10th and the last closed session the
// live heap grows only by each session's report (~2 KB) and the codec
// state a transcode graph allocates on first use — not by channels,
// payload buffers or task state (one CIF frame buffer alone is ~100 KB).
TEST(SessionLifecycle, FinishedSessionsGiveTheirMemoryBack) {
  constexpr std::size_t kVideoSessions = 48;
  constexpr std::size_t kTranscodeSessions = 12;
  constexpr std::size_t kFirstSample = 10;
  constexpr std::uint64_t kFrames = 6;

  std::vector<VideoPipeline> videos;
  for (std::size_t i = 0; i < kVideoSessions; ++i) {
    VideoPipelineConfig cfg;
    cfg.seed = i + 1;
    videos.push_back(make_video_encoder_pipeline(cfg));
  }
  IoContext io(IoContextOptions{.threads = 2});
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<FileTranscodeSession> transcodes;
  for (std::size_t i = 0; i < kTranscodeSessions; ++i) {
    injectors.push_back(std::make_unique<FaultInjector>(/*seed=*/7));
    TranscodeSessionConfig cfg;
    cfg.frames = kFrames;
    cfg.seed = 43 + i;
    cfg.fault = injectors.back().get();
    cfg.read_faults.read_error_rate = 0.30;
    cfg.read_faults.burst_length = 2;
    cfg.read_faults.latency_spike_rate = 0.10;
    cfg.read_faults.latency_spike_us = 500.0;
    cfg.write_faults.write_error_rate = 0.20;
    cfg.retry.seed = 7;
    auto made = make_file_transcode_session(io, cfg);
    ASSERT_TRUE(made.is_ok()) << made.status().to_text();
    transcodes.push_back(std::move(made.value()));
  }

  std::mutex mu;
  std::condition_variable cv;
  std::size_t closed = 0;
  EngineOptions opts;
  opts.workers = kWorkers;
  opts.on_session_complete = [&](std::size_t) {
    std::lock_guard lock(mu);
    ++closed;
    cv.notify_all();
  };
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok());
  const auto wait_closed = [&](std::size_t n) {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return closed >= n; });
  };
  std::vector<std::int64_t> live_after;  // live heap after each session
  for (auto& v : videos) {
    ASSERT_TRUE(engine.submit(v.graph, round_robin_mapping(v.graph, kWorkers),
                              kFrames)
                    .is_ok());
    wait_closed(live_after.size() + 1);
    live_after.push_back(g_live_bytes.load());
  }
  for (auto& t : transcodes) {
    ASSERT_TRUE(
        t.submit_to(engine, round_robin_mapping(t.graph, kWorkers)).is_ok());
    wait_closed(live_after.size() + 1);
    t.finish();
    // The adapters and their unit-buffer pool are the caller's; a server
    // releases them once the session's writes are flushed.
    t.source.reset();
    t.sink.reset();
    t.pool.reset();
    live_after.push_back(g_live_bytes.load());
  }
  const double per_session =
      static_cast<double>(live_after.back() - live_after[kFirstSample - 1]) /
      static_cast<double>(live_after.size() - kFirstSample);
  EXPECT_LT(per_session, 4096.0)
      << "live heap grew " << per_session << " B per finished session";
  ASSERT_TRUE(engine.wait().is_ok());
  for (std::size_t s = 0; s < live_after.size(); ++s) {
    EXPECT_NE(engine.report(s).outcome, SessionOutcome::kPending) << s;
  }
}

}  // namespace
}  // namespace mmsoc::runtime
