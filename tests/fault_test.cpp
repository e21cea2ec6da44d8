// Fault injection + failure recovery: the chaos layer (fault.h), the
// retry/backoff machinery inside the boundary adapters, failure
// escalation into the engine (kFailed). Runs under both sanitizers:
// retry timers, fail-fast escalation from the I/O thread, and
// cancel-during-retry are exactly the interleavings that never crash an
// ordinary run.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/crc32.h"
#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/io.h"
#include "runtime/pipelines.h"

namespace {

using namespace mmsoc;
using namespace mmsoc::runtime;
using common::Result;
using common::Status;
using common::StatusCode;
using mpsoc::Payload;
using mpsoc::TaskGraph;
using mpsoc::TaskId;

Payload unit_payload(std::uint64_t i, std::size_t size = 32) {
  Payload p(size);
  for (std::size_t k = 0; k < size; ++k) {
    p[k] = static_cast<std::uint8_t>(i * 131 + k);
  }
  return p;
}

mpsoc::Task task(const char* name, double work_ops) {
  mpsoc::Task t;
  t.name = name;
  t.work_ops = work_ops;
  return t;
}

/// Fast retry policy for tests: microsecond-scale backoff, determinism
/// intact.
RetryPolicy fast_retry(std::uint32_t max_attempts = 4) {
  RetryPolicy r;
  r.max_attempts = max_attempts;
  r.initial_backoff_us = 50.0;
  r.max_backoff_us = 400.0;
  return r;
}

// ---------------------------------------------------------------------------
// Deterministic decision core
// ---------------------------------------------------------------------------

TEST(FaultInjector, RollIsDeterministicInRangeAndSaltSeparated) {
  double mean = 0.0;
  for (std::uint64_t u = 0; u < 4096; ++u) {
    const double a = FaultInjector::roll(7, 1, u, 0, 0x5eed);
    const double b = FaultInjector::roll(7, 1, u, 0, 0x5eed);
    ASSERT_EQ(a, b) << "same coordinates must roll the same value";
    ASSERT_GE(a, 0.0);
    ASSERT_LT(a, 1.0);
    mean += a;
  }
  mean /= 4096.0;
  EXPECT_NEAR(mean, 0.5, 0.05) << "rolls should be roughly uniform";
  // Distinct salts / seeds / attempts decorrelate the streams.
  EXPECT_NE(FaultInjector::roll(7, 1, 3, 0, 0x5eed),
            FaultInjector::roll(7, 1, 3, 0, 0x5eee));
  EXPECT_NE(FaultInjector::roll(7, 1, 3, 0, 0x5eed),
            FaultInjector::roll(8, 1, 3, 0, 0x5eed));
  EXPECT_NE(FaultInjector::roll(7, 1, 3, 0, 0x5eed),
            FaultInjector::roll(7, 1, 3, 1, 0x5eed));
}

TEST(RetryPolicy, BackoffIsCappedMonotoneWithBoundedDeterministicJitter) {
  RetryPolicy r;
  r.max_attempts = 8;
  r.initial_backoff_us = 100.0;
  r.multiplier = 2.0;
  r.max_backoff_us = 1000.0;
  r.jitter = 0.25;
  r.seed = 42;
  double prev_base = 0.0;
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
    const double d1 = r.backoff_us(5, attempt);
    const double d2 = r.backoff_us(5, attempt);
    EXPECT_EQ(d1, d2) << "jitter must be a pure hash, not an RNG stream";
    const double base =
        std::min(100.0 * std::pow(2.0, attempt - 1), r.max_backoff_us);
    EXPECT_GE(d1, base * (1.0 - r.jitter) - 1e-9);
    EXPECT_LE(d1, base * (1.0 + r.jitter) + 1e-9);
    EXPECT_GE(base, prev_base) << "pre-jitter backoff grows monotonically";
    prev_base = base;
  }
  // Jitterless policy is exact.
  r.jitter = 0.0;
  EXPECT_EQ(r.backoff_us(0, 1), 100.0);
  EXPECT_EQ(r.backoff_us(0, 2), 200.0);
  EXPECT_EQ(r.backoff_us(0, 5), 1000.0) << "capped at max_backoff_us";
  EXPECT_EQ(r.backoff_us(0, 8), 1000.0);
}

TEST(IoErrorSummary, RecordAndMergeKeepTheEpisodeShape) {
  IoErrorSummary a;
  EXPECT_FALSE(a.any());
  a.record(4, Status(StatusCode::kUnavailable, "first"));
  a.record(9, Status(StatusCode::kInternal, "last"));
  a.retries = 1;
  EXPECT_TRUE(a.any());
  EXPECT_EQ(a.errors, 2u);
  EXPECT_EQ(a.first_unit, 4u);
  EXPECT_EQ(a.last_unit, 9u);
  EXPECT_EQ(a.first_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(a.last_status.code(), StatusCode::kInternal);

  IoErrorSummary b;
  b.record(2, Status(StatusCode::kCorruptData, "earlier"));
  b.retries = 2;
  a.merge(b);
  EXPECT_EQ(a.errors, 3u);
  EXPECT_EQ(a.retries, 3u);
  EXPECT_EQ(a.first_unit, 2u) << "merge keeps the globally first error";
  EXPECT_EQ(a.first_status.code(), StatusCode::kCorruptData);
  EXPECT_EQ(a.last_unit, 9u);

  IoErrorSummary empty;
  a.merge(empty);
  EXPECT_EQ(a.errors, 3u) << "merging an empty summary changes nothing";
}

// ---------------------------------------------------------------------------
// Injected schedules: seeded, reproducible, corruption included
// ---------------------------------------------------------------------------

/// Replay `units` reads through a wrapped always-succeeding inner
/// endpoint, retrying injected transient errors like the adapter would
/// (same unit, next attempt), and record each op's outcome code.
std::vector<StatusCode> replay_reads(TryReadFn wrapped, std::uint64_t units,
                                     std::uint32_t max_attempts) {
  std::vector<StatusCode> outcomes;
  for (std::uint64_t u = 0; u < units; ++u) {
    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      auto got = wrapped(u);
      outcomes.push_back(got.is_ok() ? StatusCode::kOk : got.status().code());
      if (got.is_ok() || got.status().code() != StatusCode::kUnavailable) {
        break;  // success, or a non-retryable code: move on
      }
    }
  }
  return outcomes;
}

TEST(FaultInjector, TransientScheduleIsIdenticalAcrossInjectorsWithOneSeed) {
  FaultPlan plan;
  plan.read_error_rate = 0.3;
  plan.burst_length = 2;
  constexpr std::uint64_t kUnits = 64;

  auto run = [&](std::uint64_t seed) {
    FaultInjector inj(seed);
    const std::size_t ep = inj.add_endpoint("disk", plan);
    auto wrapped = inj.wrap_read(ep, [](std::uint64_t i) {
      return Result<Payload>(unit_payload(i));
    });
    auto outcomes = replay_reads(std::move(wrapped), kUnits, 4);
    return std::pair(outcomes, inj.stats(ep));
  };

  const auto [a, sa] = run(1234);
  const auto [b, sb] = run(1234);
  EXPECT_EQ(a, b) << "same seed must produce the identical fault schedule";
  EXPECT_EQ(sa.transient_errors, sb.transient_errors);
  EXPECT_EQ(sa.ops, sb.ops);
  EXPECT_GT(sa.transient_errors, 0u) << "30% over 64 units must inject";

  const auto [c, sc] = run(9999);
  EXPECT_NE(a, c) << "a different seed must produce a different schedule";
  // Burst grouping: with burst_length 2, units 2k and 2k+1 share the
  // first-attempt roll, so first-attempt outcomes come in pairs.
  FaultInjector probe(1234);
  const std::size_t ep = probe.add_endpoint("disk", plan);
  for (std::uint64_t g = 0; g < kUnits / 2; ++g) {
    const bool lo = FaultInjector::roll(1234, ep, g, 0, 0x7261'6e73'5244ull) <
                    plan.read_error_rate;
    (void)lo;  // the pairing itself is asserted via schedule equality above
  }
}

TEST(FaultInjector, CorruptionIsDeterministicCountedAndDistinct) {
  FaultPlan plan;
  plan.corruption_rate = 1.0;  // corrupt every successful read
  auto corrupt_once = [&](std::uint64_t seed, std::uint64_t unit) {
    FaultInjector inj(seed);
    const std::size_t ep = inj.add_endpoint("net", plan);
    auto wrapped = inj.wrap_read(ep, [](std::uint64_t i) {
      return Result<Payload>(unit_payload(i, 96));
    });
    auto got = wrapped(unit);
    EXPECT_TRUE(got.is_ok());
    EXPECT_EQ(inj.stats(ep).corruptions, 1u);
    return got.value();
  };
  const Payload a = corrupt_once(5, 3);
  const Payload b = corrupt_once(5, 3);
  EXPECT_EQ(a, b) << "bit rot must be reproducible per seed";
  EXPECT_NE(a, unit_payload(3, 96)) << "and must actually change the bytes";
}

TEST(FaultInjector, PermanentWindowUsesTheRightCode) {
  FaultPlan plan;
  plan.fail_at_unit = 5;
  FaultInjector inj(1);
  const std::size_t ep = inj.add_endpoint("dev", plan);
  auto wrapped = inj.wrap_read(
      ep, [](std::uint64_t i) { return Result<Payload>(unit_payload(i)); });
  EXPECT_TRUE(wrapped(0).is_ok());
  EXPECT_TRUE(wrapped(4).is_ok());
  EXPECT_EQ(wrapped(5).status().code(), StatusCode::kCorruptData);
  EXPECT_EQ(wrapped(6).status().code(), StatusCode::kCorruptData);
  const auto stats = inj.stats(ep);
  EXPECT_EQ(stats.permanent_errors, 2u);
  EXPECT_EQ(stats.injected(), 2u);
  EXPECT_EQ(inj.endpoint_name(ep), "dev");
}

// ---------------------------------------------------------------------------
// Boundary recovery through the engine: retry -> recover / fail
// ---------------------------------------------------------------------------

/// Two-task boundary graph (gated source -> collecting sink) + the
/// engine plumbing every recovery test needs. The sink task has a
/// single owner, so `got` needs no lock.
struct BoundaryRig {
  TaskGraph g{"fault-rig"};
  TaskId src = 0;
  TaskId snk = 0;
  std::vector<Payload> got;

  BoundaryRig() {
    src = g.add_task(task("src", 10));
    snk = g.add_task(task("snk", 10));
    EXPECT_TRUE(g.add_edge(src, snk, 32).is_ok());
    g.set_body(snk, [this](mpsoc::TaskFiring& f) {
      got.push_back(*f.inputs[0]);
    });
  }

  std::uint32_t crc() const {
    dsp::Crc32 c;
    for (const auto& p : got) c.update(p);
    return c.value();
  }
};

/// Wire failure handler + error observer + waker, mirroring what
/// pipelines.cpp does for its sessions.
void wire(Engine& engine, std::size_t sid, AsyncSource& source, TaskId src,
          std::uint64_t units) {
  source.set_failure_handler(
      [&engine, sid](std::uint64_t unit, const Status& status) {
        engine.fail_session(sid, unit, status);
      });
  source.set_error_observer([&engine, sid](std::uint64_t unit,
                                           const Status& status,
                                           bool will_retry) {
    engine.record_io_error(sid, unit, status, will_retry);
  });
  auto waker = engine.task_waker(sid, src);
  ASSERT_TRUE(waker.is_ok());
  source.attach(units, std::move(waker.value()));
}

TEST(FaultRecovery, TransientErrorsRetryToCompletionWithExactAccounting) {
  constexpr std::uint64_t kUnits = 18;
  // Reference: what a clean run delivers.
  std::uint32_t clean_crc = 0;
  {
    dsp::Crc32 c;
    for (std::uint64_t i = 0; i < kUnits; ++i) c.update(unit_payload(i));
    clean_crc = c.value();
  }

  IoContext io;
  // Every third unit fails its first attempt, succeeds on retry.
  std::atomic<std::uint64_t> injected{0};
  auto flaky = [&injected](std::uint64_t i) -> Result<Payload> {
    static thread_local std::uint64_t last = ~std::uint64_t{0};
    static thread_local std::uint64_t attempt = 0;
    if (last == i) {
      ++attempt;
    } else {
      last = i;
      attempt = 0;
    }
    if (i % 3 == 0 && attempt == 0) {
      injected.fetch_add(1);
      return Result<Payload>(Status(StatusCode::kUnavailable,
                                    "transient at " + std::to_string(i)));
    }
    return Result<Payload>(unit_payload(i));
  };
  AsyncSource source(io, TryReadFn(flaky), fast_retry(), /*depth=*/2);
  BoundaryRig rig;
  source.bind(rig.g, rig.src);

  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(rig.g, {0, 1}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  wire(engine, sid.value(), source, rig.src, kUnits);
  ASSERT_TRUE(engine.wait().is_ok());

  const auto& rep = engine.report(sid.value());
  EXPECT_EQ(rep.outcome, SessionOutcome::kCompleted)
      << "transient faults within the retry budget must not fail a session";
  EXPECT_EQ(rig.got.size(), kUnits);
  EXPECT_EQ(rig.crc(), clean_crc)
      << "recovered output must be byte-identical to a clean run";

  const std::uint64_t expect_errors = injected.load();
  EXPECT_EQ(expect_errors, (kUnits + 2) / 3);
  const auto stats = source.stats();
  EXPECT_EQ(stats.errors, expect_errors);
  EXPECT_EQ(stats.retries, expect_errors) << "each error retried exactly once";
  EXPECT_EQ(stats.recovered, expect_errors);
  // The per-session error summary in the report tells the same story.
  EXPECT_EQ(rep.io_errors.errors, expect_errors);
  EXPECT_EQ(rep.io_errors.retries, expect_errors);
  EXPECT_EQ(rep.io_errors.first_unit, 0u);
  EXPECT_EQ(rep.io_errors.last_unit, ((kUnits - 1) / 3) * 3);
  EXPECT_TRUE(source.failure().is_ok());
}

TEST(FaultRecovery, RetryExhaustionFailsSessionButCoResidentCompletes) {
  constexpr std::uint64_t kUnits = 12;
  constexpr std::uint64_t kBadUnit = 3;
  IoContext io;

  auto broken = [](std::uint64_t i) -> Result<Payload> {
    if (i == kBadUnit) {
      return Result<Payload>(
          Status(StatusCode::kUnavailable, "device refuses unit 3"));
    }
    return Result<Payload>(unit_payload(i));
  };
  AsyncSource bad_source(io, TryReadFn(broken), fast_retry(3), 2);
  BoundaryRig bad_rig;
  bad_source.bind(bad_rig.g, bad_rig.src);

  AsyncSource good_source(
      io,
      TryReadFn([](std::uint64_t i) { return Result<Payload>(unit_payload(i)); }),
      fast_retry(3), 2);
  BoundaryRig good_rig;
  good_source.bind(good_rig.g, good_rig.src);

  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto bad = engine.submit(bad_rig.g, {0, 1}, kUnits);
  auto good = engine.submit(good_rig.g, {1, 0}, kUnits);
  ASSERT_TRUE(bad.is_ok());
  ASSERT_TRUE(good.is_ok());
  wire(engine, bad.value(), bad_source, bad_rig.src, kUnits);
  wire(engine, good.value(), good_source, good_rig.src, kUnits);
  ASSERT_TRUE(engine.wait().is_ok()) << "a failed session must not wedge wait()";

  const auto& brep = engine.report(bad.value());
  EXPECT_EQ(brep.outcome, SessionOutcome::kFailed);
  EXPECT_EQ(brep.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(brep.failed_unit, kBadUnit)
      << "the report must carry the failing unit index";
  EXPECT_NE(brep.status.message().find("unit 3"), std::string::npos)
      << brep.status.message();
  EXPECT_EQ(brep.io_errors.errors, 3u) << "one per attempt";
  EXPECT_EQ(brep.io_errors.retries, 2u) << "max_attempts 3 = 2 retries";
  EXPECT_EQ(bad_source.failed_unit(), kBadUnit);
  EXPECT_FALSE(bad_source.failure().is_ok());

  const auto& grep_ = engine.report(good.value());
  EXPECT_EQ(grep_.outcome, SessionOutcome::kCompleted)
      << "the co-resident session must be untouched by its neighbour's fault";
  EXPECT_EQ(grep_.io_errors.errors, 0u);
  dsp::Crc32 clean;
  for (std::uint64_t i = 0; i < kUnits; ++i) clean.update(unit_payload(i));
  EXPECT_EQ(good_rig.crc(), clean.value())
      << "co-resident output must stay byte-identical to a clean run";
}

TEST(FaultRecovery, PermanentErrorFailsImmediatelyWithoutRetry) {
  constexpr std::uint64_t kUnits = 8;
  IoContext io;
  auto dying = [](std::uint64_t i) -> Result<Payload> {
    if (i == 2) {
      return Result<Payload>(Status(StatusCode::kCorruptData, "bad sector"));
    }
    return Result<Payload>(unit_payload(i));
  };
  AsyncSource source(io, TryReadFn(dying), fast_retry(), 2);
  BoundaryRig rig;
  source.bind(rig.g, rig.src);

  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(rig.g, {0, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  wire(engine, sid.value(), source, rig.src, kUnits);
  ASSERT_TRUE(engine.wait().is_ok());

  const auto& rep = engine.report(sid.value());
  EXPECT_EQ(rep.outcome, SessionOutcome::kFailed);
  EXPECT_EQ(rep.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rep.failed_unit, 2u);
  EXPECT_EQ(rep.io_errors.errors, 1u);
  EXPECT_EQ(rep.io_errors.retries, 0u)
      << "permanent errors must never burn retry budget";
  EXPECT_EQ(source.stats().retries, 0u);
}

// Regression: a stopped IoContext used to fail *open* — the session
// drained on empty payloads and reported kCompleted, silently losing
// data. With the failure plumbing wired it must surface kUnavailable
// (outcome kFailed) with the failing unit, while still draining.
TEST(FailOpen, StoppedContextSurfacesUnavailableInsteadOfSilentSuccess) {
  constexpr std::uint64_t kUnits = 6;
  IoContext io;
  AsyncSource source(
      io,
      TryReadFn([](std::uint64_t i) { return Result<Payload>(unit_payload(i)); }),
      fast_retry(), 2);
  BoundaryRig rig;
  source.bind(rig.g, rig.src);

  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(rig.g, {0, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  io.stop();  // the device side dies before the session is wired
  wire(engine, sid.value(), source, rig.src, kUnits);
  ASSERT_TRUE(engine.wait().is_ok()) << "drain must not wedge";

  const auto& rep = engine.report(sid.value());
  EXPECT_EQ(rep.outcome, SessionOutcome::kFailed)
      << "a dead I/O context must never masquerade as success";
  EXPECT_EQ(rep.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(rep.status.message().find("stopped"), std::string::npos)
      << rep.status.message();
  EXPECT_FALSE(source.failure().is_ok());
}

// ---------------------------------------------------------------------------
// A device that reports itself stuck fails its session at once
// ---------------------------------------------------------------------------

// kResourceExhausted is a permanent error like any other: the adapter
// fails the session on the spot, with no telemetry and no watchdog. The
// session timeout is only a backstop: a boundary that waits on the stuck
// unit ends the session kDeadlineExceeded after 10 s instead of hanging
// the test.
TEST(FailFast, StuckDeviceFailsSessionWhileNeighbourCompletes) {
  constexpr std::uint64_t kUnits = 16;
  constexpr std::uint64_t kStuckUnit = 2;
  IoContext io;
  auto stuck_read = [](std::uint64_t i) -> Result<Payload> {
    if (i >= kStuckUnit) {
      return Result<Payload>(
          Status(StatusCode::kResourceExhausted, "device wedged"));
    }
    return Result<Payload>(unit_payload(i));
  };
  AsyncSource stuck_source(io, TryReadFn(stuck_read), fast_retry(), 2);
  BoundaryRig stuck_rig;
  stuck_source.bind(stuck_rig.g, stuck_rig.src);

  AsyncSource good_source(
      io,
      TryReadFn([](std::uint64_t i) { return Result<Payload>(unit_payload(i)); }),
      fast_retry(), 2);
  BoundaryRig good_rig;
  good_source.bind(good_rig.g, good_rig.src);

  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  SessionOptions backstop;
  backstop.timeout = std::chrono::seconds(10);
  auto wedged = engine.submit(stuck_rig.g, {0, 1}, kUnits, backstop);
  auto fine = engine.submit(good_rig.g, {1, 0}, kUnits);
  ASSERT_TRUE(wedged.is_ok());
  ASSERT_TRUE(fine.is_ok());
  wire(engine, wedged.value(), stuck_source, stuck_rig.src, kUnits);
  wire(engine, fine.value(), good_source, good_rig.src, kUnits);
  ASSERT_TRUE(engine.wait().is_ok())
      << "a stuck device must fail its session, not wedge wait()";

  const auto& wrep = engine.report(wedged.value());
  EXPECT_EQ(wrep.outcome, SessionOutcome::kFailed);
  EXPECT_EQ(wrep.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(wrep.failed_unit, kStuckUnit);
  EXPECT_EQ(wrep.io_errors.retries, 0u) << "a stuck device is never retried";
  EXPECT_EQ(stuck_source.failed_unit(), kStuckUnit);

  const auto& frep = engine.report(fine.value());
  EXPECT_EQ(frep.outcome, SessionOutcome::kCompleted)
      << "the engine must keep serving sessions next to the failed one";
  dsp::Crc32 clean;
  for (std::uint64_t i = 0; i < kUnits; ++i) clean.update(unit_payload(i));
  EXPECT_EQ(good_rig.crc(), clean.value());
}

// ---------------------------------------------------------------------------
// Teardown races: cancel / destruction while a retry backoff is pending
// ---------------------------------------------------------------------------

TEST(FaultRaces, CancelDuringRetryBackoffDrainsCleanly) {
  for (int round = 0; round < 6; ++round) {
    IoContext io;
    // Always-transient device: the session lives inside the retry loop.
    auto always_flaky = [](std::uint64_t i) -> Result<Payload> {
      return Result<Payload>(
          Status(StatusCode::kUnavailable, "flaky " + std::to_string(i)));
    };
    RetryPolicy retry = fast_retry(64);  // long budget: cancel wins the race
    retry.initial_backoff_us = 200.0;
    retry.max_backoff_us = 200.0;
    // Declared before the source: the source's pending retry may still
    // fire its failure handler while quiescing, and that handler needs
    // a live engine. Destruction order is source -> engine -> context.
    EngineOptions eopts;
    eopts.workers = 2;
    Engine engine(eopts);
    BoundaryRig rig;
    AsyncSource source(io, TryReadFn(always_flaky), retry, 2);
    source.bind(rig.g, rig.src);
    ASSERT_TRUE(engine.start().is_ok());
    auto sid = engine.submit(rig.g, {0, 1}, 8);
    ASSERT_TRUE(sid.is_ok());
    wire(engine, sid.value(), source, rig.src, 8);
    std::this_thread::sleep_for(std::chrono::microseconds(100 + 150 * round));
    engine.cancel(sid.value());
    ASSERT_TRUE(engine.wait().is_ok()) << "round " << round;
    const auto outcome = engine.report(sid.value()).outcome;
    EXPECT_TRUE(outcome == SessionOutcome::kCancelled ||
                outcome == SessionOutcome::kFailed)
        << "round " << round << ": " << to_string(outcome);
    // ~AsyncSource now quiesces through the pending backoff; ~Engine and
    // ~IoContext follow. TSan owns the actual assertions here.
  }
}

// A sink's write retries can outlive Engine::wait(): the graph drains
// (firings just bank payloads in the adapter), the session retires, and
// the device-side retry timer is still pending when everything is torn
// down. The adapter destructors must quiesce through that retry — whose
// exhaustion handler calls fail_session on an already-retired session —
// before the engine goes away.
TEST(FaultRaces, EngineTeardownDuringSinkRetryBackoffQuiesces) {
  for (int round = 0; round < 6; ++round) {
    IoContext io;
    EngineOptions eopts;
    eopts.workers = 2;
    Engine engine(eopts);
    TaskGraph g{"teardown-rig"};
    const TaskId src = g.add_task(task("src", 10));
    const TaskId snk = g.add_task(task("snk", 10));
    ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());

    AsyncSource source(
        io,
        TryReadFn(
            [](std::uint64_t i) { return Result<Payload>(unit_payload(i)); }),
        fast_retry(), /*depth=*/8);
    source.bind(g, src);
    // Unit 3 never writes: 16 attempts x 200us of backoff keeps the
    // retry machine alive long past wait().
    RetryPolicy retry = fast_retry(16);
    retry.initial_backoff_us = 200.0;
    retry.max_backoff_us = 200.0;
    AsyncSink sink(io,
                   TryWriteFn([](std::uint64_t i, const Payload&) {
                     if (i == 3) {
                       return Status(StatusCode::kUnavailable, "flaky write");
                     }
                     return Status::ok();
                   }),
                   retry, /*depth=*/8);
    sink.bind(g, snk);

    ASSERT_TRUE(engine.start().is_ok());
    auto sid = engine.submit(g, {0, 1}, 6);
    ASSERT_TRUE(sid.is_ok());
    wire(engine, sid.value(), source, src, 6);
    sink.set_failure_handler(
        [&engine, s = sid.value()](std::uint64_t unit, const Status& status) {
          engine.fail_session(s, unit, status);  // closed: amends the report
        });
    sink.set_error_observer([&engine, s = sid.value()](std::uint64_t unit,
                                                       const Status& status,
                                                       bool will_retry) {
      engine.record_io_error(s, unit, status, will_retry);
    });
    auto swaker = engine.task_waker(sid.value(), snk);
    ASSERT_TRUE(swaker.is_ok());
    sink.attach(std::move(swaker.value()));

    ASSERT_TRUE(engine.wait().is_ok())
        << "round " << round << ": graph drain must not wait on the device";
    std::this_thread::sleep_for(std::chrono::microseconds(150 * round));
    // No flush(): destruction order is sink first (quiesces through the
    // pending retry while the engine is still alive to take the late
    // fail_session), then source, then engine, then context.
  }
}

// ---------------------------------------------------------------------------
// Chaos matrix: seeded schedules x worker counts, exact accounting
// ---------------------------------------------------------------------------

struct ChaosRun {
  SessionOutcome faulted_outcome;
  SessionOutcome clean_outcome;
  std::uint32_t faulted_crc = 0;
  std::uint32_t clean_crc = 0;
  FaultStats injector_stats;
  std::uint64_t report_errors = 0;
  std::uint64_t report_retries = 0;
  std::uint64_t adapter_errors = 0;
  std::uint64_t adapter_retries = 0;
  std::uint64_t counter_injected = 0;
  std::uint64_t counter_retries = 0;
};

ChaosRun chaos_run(std::uint64_t seed, std::size_t workers) {
  TelemetryOptions topts;
  topts.collect_period_ms = 0;
  topts.unit_sample_period = 0;
  topts.watchdog_periods = 0;
  Telemetry tel(topts);
  IoContextOptions iopts;
  iopts.telemetry = &tel;
  IoContext io(iopts);
  FaultInjector injector(seed, &tel);

  TranscodeSessionConfig faulted;
  faulted.width = 32;
  faulted.height = 32;
  faulted.frames = 6;
  faulted.seed = 11;
  faulted.fault = &injector;
  faulted.read_faults.read_error_rate = 0.25;
  faulted.read_faults.burst_length = 2;
  faulted.read_faults.latency_spike_rate = 0.1;
  faulted.read_faults.latency_spike_us = 100.0;
  faulted.write_faults.write_error_rate = 0.15;
  faulted.retry = fast_retry(4);
  faulted.retry.seed = seed;

  TranscodeSessionConfig clean;
  clean.width = 32;
  clean.height = 32;
  clean.frames = 6;
  clean.seed = 11;

  auto made_faulted = make_file_transcode_session(io, faulted);
  auto made_clean = make_file_transcode_session(io, clean);
  EXPECT_TRUE(made_faulted.is_ok());
  EXPECT_TRUE(made_clean.is_ok());
  FileTranscodeSession sf = std::move(made_faulted.value());
  FileTranscodeSession sc = std::move(made_clean.value());

  EngineOptions eopts;
  eopts.workers = workers;
  eopts.telemetry = &tel;
  Engine engine(eopts);
  EXPECT_TRUE(engine.start().is_ok());
  auto fid = sf.submit_to(engine, round_robin_mapping(sf.graph, workers));
  auto cid = sc.submit_to(engine, round_robin_mapping(sc.graph, workers));
  EXPECT_TRUE(fid.is_ok());
  EXPECT_TRUE(cid.is_ok());
  EXPECT_TRUE(engine.wait().is_ok()) << "chaos must never wedge the engine";
  sf.finish();
  sc.finish();

  ChaosRun out;
  const auto& frep = engine.report(fid.value());
  const auto& crep = engine.report(cid.value());
  out.faulted_outcome = frep.outcome;
  out.clean_outcome = crep.outcome;
  out.faulted_crc = sf.state->out_crc;
  out.clean_crc = sc.state->out_crc;
  out.injector_stats = injector.total_stats();
  out.report_errors = frep.io_errors.errors;
  out.report_retries = frep.io_errors.retries;
  const auto sstats = sf.source->stats();
  const auto kstats = sf.sink->stats();
  out.adapter_errors = sstats.errors + kstats.errors;
  out.adapter_retries = sstats.retries + kstats.retries;
  out.counter_injected = tel.metrics().counter("fault.injected")->value();
  out.counter_retries = tel.metrics().counter("io.retries")->value();
  return out;
}

TEST(ChaosMatrix, SeededSchedulesAreWorkerCountInvariantWithExactAccounting) {
  const std::uint64_t seeds[] = {101, 202, 303};
  // Reference clean bitstream, once.
  const std::uint32_t reference_clean = chaos_run(0xdead, 1).clean_crc;

  for (const std::uint64_t seed : seeds) {
    const ChaosRun one = chaos_run(seed, 1);
    const ChaosRun four = chaos_run(seed, 4);

    // Determinism: the fault schedule and its consequences must not
    // depend on worker count.
    EXPECT_EQ(one.faulted_outcome, four.faulted_outcome) << "seed " << seed;
    EXPECT_EQ(one.injector_stats.transient_errors,
              four.injector_stats.transient_errors)
        << "seed " << seed;
    EXPECT_EQ(one.injector_stats.ops, four.injector_stats.ops)
        << "seed " << seed;
    EXPECT_EQ(one.adapter_errors, four.adapter_errors) << "seed " << seed;
    EXPECT_EQ(one.adapter_retries, four.adapter_retries) << "seed " << seed;
    if (one.faulted_outcome == SessionOutcome::kCompleted) {
      EXPECT_EQ(one.faulted_crc, four.faulted_crc)
          << "seed " << seed << ": recovered output must be bit-identical";
    }
    // Non-faulted co-resident sessions are byte-identical to a clean run.
    EXPECT_EQ(one.clean_outcome, SessionOutcome::kCompleted);
    EXPECT_EQ(four.clean_outcome, SessionOutcome::kCompleted);
    EXPECT_EQ(one.clean_crc, reference_clean) << "seed " << seed;
    EXPECT_EQ(four.clean_crc, reference_clean) << "seed " << seed;
    // Exact accounting: injector, adapters, session report, and
    // telemetry counters all tell the same story.
    for (const ChaosRun* r : {&one, &four}) {
      // The injector is the only error source here, so adapter stats
      // and telemetry counters must match it exactly. The session
      // report is a snapshot taken at graph drain: sink retries that
      // complete after retirement may trail it, so it only bounds.
      EXPECT_EQ(r->adapter_errors, r->injector_stats.transient_errors)
          << "seed " << seed;
      EXPECT_LE(r->report_errors, r->adapter_errors) << "seed " << seed;
      EXPECT_LE(r->report_retries, r->adapter_retries) << "seed " << seed;
      EXPECT_EQ(r->counter_injected, r->injector_stats.injected())
          << "seed " << seed;
      EXPECT_EQ(r->counter_retries, r->adapter_retries) << "seed " << seed;
      EXPECT_LE(r->adapter_retries, r->adapter_errors)
          << "every retry traces back to an injected transient";
    }
  }
}

// ---------------------------------------------------------------------------
// Block endpoints: multi-error summaries replace first-error-only status
// ---------------------------------------------------------------------------

TEST(BlockEndpoints, SinkTryWriteRecordsEverySinkErrorNotJustTheFirst) {
  fs::BlockDevice device(/*block_count=*/64, /*block_size=*/512);
  auto formatted = fs::FatVolume::format(device);
  ASSERT_TRUE(formatted.is_ok());
  fs::FatVolume volume = std::move(formatted.value());
  auto volume_mu = std::make_shared<std::mutex>();
  BlockFileSink sink(volume, volume_mu, "/out.bit");

  // Two good writes through the fallible path.
  EXPECT_TRUE(sink.try_write(0, unit_payload(0)).is_ok());
  EXPECT_TRUE(sink.try_write(1, unit_payload(1)).is_ok());
  EXPECT_FALSE(sink.error_summary().any());

  // Exhaust the volume so appends start failing, then fail twice.
  Payload huge(static_cast<std::size_t>(device.block_count()) *
               device.block_size());
  std::uint64_t unit = 2;
  while (sink.try_write(unit, huge).is_ok() && unit < 64) ++unit;
  ASSERT_LT(unit, 64u) << "an over-capacity append must eventually fail";
  const auto failing_a = unit;
  EXPECT_FALSE(sink.try_write(failing_a + 1, huge).is_ok());

  const auto summary = sink.error_summary();
  EXPECT_EQ(summary.errors, 2u) << "both failures recorded, not just one";
  EXPECT_EQ(summary.first_unit, failing_a);
  EXPECT_EQ(summary.last_unit, failing_a + 1);
}

}  // namespace
