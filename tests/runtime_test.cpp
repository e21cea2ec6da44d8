// Tests for the concurrent dataflow runtime: queue primitives, engine
// correctness (determinism across worker counts, back-pressure bounds,
// multi-session multiplexing), precise wakeups under cancellation and
// deadlines, dynamic admission (submit while running), bounded work
// stealing under skew (including the steal/cancel/submit race suite the
// CI sanitizer matrix runs under TSan), real-kernel pipelines, and the
// predicted-vs-measured model comparison.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/appgraphs.h"
#include "core/profiles.h"
#include "mpsoc/mapping.h"
#include "runtime/engine.h"
#include "runtime/pipelines.h"
#include "runtime/queue.h"
#include "runtime/trace.h"

namespace mmsoc::runtime {
namespace {

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

TEST(SpscQueue, FifoOrderAndWraparound) {
  SpscQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.try_push(round * 10 + i));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.try_push(99));
    for (int i = 0; i < 3; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, round * 10 + i);
    }
    EXPECT_FALSE(q.try_pop().has_value());
  }
  EXPECT_LE(q.max_occupancy(), q.capacity());
}

TEST(SpscQueue, ConcurrentProducerConsumer) {
  SpscQueue<std::uint64_t> q(8);
  constexpr std::uint64_t kCount = 20000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount;) {
      if (q.try_push(std::uint64_t{i})) ++i;
      else std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  while (expected < kCount) {
    if (auto v = q.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_LE(q.max_occupancy(), q.capacity());
}

TEST(MpmcQueue, BlockingPushPopAndClose) {
  MpmcQueue<int> q(4);
  std::atomic<int> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) sum.fetch_add(*v);
    });
  }
  int pushed = 0;
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(q.push(i));
    pushed += i;
  }
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(sum.load(), pushed);
  EXPECT_FALSE(q.push(7));  // closed
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

mpsoc::TaskGraph diamond_graph() {
  mpsoc::TaskGraph g("diamond");
  auto task = [](const char* name, double ops) {
    mpsoc::Task t;
    t.name = name;
    t.work_ops = ops;
    return t;
  };
  const auto a = g.add_task(task("a", 2000));
  const auto b = g.add_task(task("b", 4000));
  const auto c = g.add_task(task("c", 3000));
  const auto d = g.add_task(task("d", 1000));
  (void)g.add_edge(a, b, 8);
  (void)g.add_edge(a, c, 8);
  (void)g.add_edge(b, d, 8);
  (void)g.add_edge(c, d, 8);
  return g;
}

TEST(Engine, RejectsInvalidSessions) {
  Engine engine;
  mpsoc::TaskGraph g = diamond_graph();  // no bodies attached
  EXPECT_FALSE(engine.submit(g, mpsoc::Mapping(4, 0), 10).is_ok());

  auto g2 = diamond_graph();
  (void)attach_synthetic_bodies(g2);
  EXPECT_FALSE(engine.submit(g2, mpsoc::Mapping(3, 0), 10).is_ok())
      << "mapping size mismatch must be rejected";
  EXPECT_FALSE(engine.submit(g2, mpsoc::Mapping(4, 0), 0).is_ok())
      << "zero iterations must be rejected";

  mpsoc::TaskGraph cyclic("cycle");
  mpsoc::Task t;
  t.name = "x";
  t.body = [](mpsoc::TaskFiring&) {};
  const auto x = cyclic.add_task(t);
  t.name = "y";
  const auto y = cyclic.add_task(t);
  (void)cyclic.add_edge(x, y, 1);
  (void)cyclic.add_edge(y, x, 1);
  EXPECT_FALSE(engine.submit(cyclic, mpsoc::Mapping(2, 0), 1).is_ok());
}

TEST(Engine, DeterministicAcrossWorkerCounts) {
  constexpr std::uint64_t kIters = 64;
  std::uint64_t reference_digest = 0;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    auto g = diamond_graph();
    auto sink = attach_synthetic_bodies(g, 0.1);
    EngineOptions opts;
    opts.workers = workers;
    const mpsoc::Mapping mapping = {0, 1, 2, 3};
    auto report = run_pipeline(g, mapping, kIters, opts);
    ASSERT_TRUE(report.is_ok()) << report.status().to_text();
    EXPECT_EQ(report.value().iterations, kIters);
    EXPECT_EQ(sink->tokens.load(), kIters);
    if (workers == 1) {
      reference_digest = sink->digest.load();
    } else {
      EXPECT_EQ(sink->digest.load(), reference_digest)
          << "digest must not depend on worker count (" << workers << ")";
    }
  }
}

// A fast producer into a slow consumer over one edge declaring
// `edge_bytes` per token; returns the deepest the channel ever got.
std::size_t producer_consumer_occupancy(double edge_bytes,
                                        const EngineOptions& opts) {
  mpsoc::TaskGraph g("producer-consumer");
  mpsoc::Task prod;
  prod.name = "producer";
  prod.body = [](mpsoc::TaskFiring& f) {
    f.outputs[0] = mpsoc::Payload{static_cast<std::uint8_t>(f.iteration)};
  };
  mpsoc::Task cons;
  cons.name = "consumer";
  cons.body = [](mpsoc::TaskFiring&) {
    // ~50us of work per token so the producer runs far ahead.
    volatile double x = 1.0;
    for (int i = 0; i < 20000; ++i) x = x * 1.0000001 + 0.5;
  };
  const auto p = g.add_task(prod);
  const auto c = g.add_task(cons);
  (void)g.add_edge(p, c, edge_bytes);
  auto report = run_pipeline(g, {0, 1}, 200, opts);
  EXPECT_TRUE(report.is_ok()) << report.status().to_text();
  return report.is_ok() ? report.value().max_channel_occupancy : 0;
}

TEST(Engine, BackPressureNeverExceedsCapacity) {
  // The bounded channel must cap in-flight tokens at its capacity.
  EngineOptions opts;
  opts.workers = 2;
  opts.channel_capacity = 3;
  const std::size_t occupancy = producer_consumer_occupancy(1, opts);
  EXPECT_LE(occupancy, 3u);
  EXPECT_GE(occupancy, 1u);
}

TEST(Engine, ChannelDepthFollowsDeclaredTokenBytes) {
  EngineOptions opts;
  opts.workers = 2;
  // Frame-sized tokens (over the 256 KiB edge budget) are double-buffered;
  // small tokens get the full channel_capacity.
  EXPECT_LE(producer_consumer_occupancy(300e3, opts), 2u);
  EXPECT_GT(producer_consumer_occupancy(8, opts), 2u);
  EXPECT_GT(producer_consumer_occupancy(0, opts), 2u)
      << "bytes == 0 declares no size and keeps channel_capacity";
  opts.channel_capacity = 1;
  EXPECT_EQ(producer_consumer_occupancy(300e3, opts), 1u)
      << "the double-buffer floor never raises channel_capacity";
}

TEST(Engine, MultiSessionStress) {
  constexpr std::size_t kSessions = 6;
  constexpr std::uint64_t kIters = 32;

  // Reference digest from an isolated 1-worker run.
  std::uint64_t reference = 0;
  {
    auto g = diamond_graph();
    auto sink = attach_synthetic_bodies(g, 0.05);
    EngineOptions opts;
    opts.workers = 1;
    auto r = run_pipeline(g, {0, 0, 0, 0}, kIters, opts);
    ASSERT_TRUE(r.is_ok());
    reference = sink->digest.load();
  }

  EngineOptions opts;
  opts.workers = 3;
  opts.channel_capacity = 2;
  Engine engine(opts);
  std::vector<mpsoc::TaskGraph> graphs;
  std::vector<std::shared_ptr<SyntheticSinkState>> sinks;
  graphs.reserve(kSessions);  // graphs must not reallocate after submit
  for (std::size_t s = 0; s < kSessions; ++s) {
    graphs.push_back(diamond_graph());
    sinks.push_back(attach_synthetic_bodies(graphs.back(), 0.05));
    // Spread sessions over different PEs to exercise the shared pool.
    const mpsoc::Mapping mapping = {s % 3, (s + 1) % 3, (s + 2) % 3, s % 3};
    auto added = engine.submit(graphs.back(), mapping, kIters);
    ASSERT_TRUE(added.is_ok()) << added.status().to_text();
  }
  const auto status = engine.run();
  ASSERT_TRUE(status.is_ok()) << status.to_text();
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(sinks[s]->tokens.load(), kIters) << "session " << s;
    EXPECT_EQ(sinks[s]->digest.load(), reference)
        << "session " << s << " output diverged";
    const auto& rep = engine.report(s);
    EXPECT_EQ(rep.iterations, kIters);
    EXPECT_GT(rep.wall_s, 0.0);
    for (const auto& t : rep.tasks) EXPECT_EQ(t.firings, kIters);
  }
}

// ---------------------------------------------------------------------------
// Cancellation, deadlines, shutdown
// ---------------------------------------------------------------------------

// A chain whose stages burn enough per firing that a huge iteration
// count cannot finish within the test: the cancellation workload.
SyntheticPipeline endless_chain() {
  return make_synthetic_chain(/*stages=*/3, /*stage_ops=*/20000.0);
}

TEST(Engine, CancelMidPipelineStopsPromptlyAndReportsPartial) {
  auto pipe = endless_chain();
  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  constexpr std::uint64_t kIters = 200'000'000;  // would take hours
  auto added = engine.submit(pipe.graph, {0, 1, 0}, kIters);
  ASSERT_TRUE(added.is_ok()) << added.status().to_text();

  ASSERT_TRUE(engine.start().is_ok());
  EXPECT_TRUE(engine.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.cancel(added.value());

  const auto t0 = std::chrono::steady_clock::now();
  const auto status = engine.wait();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(status.is_ok()) << status.to_text();  // cancel is not an error
  EXPECT_LT(waited, std::chrono::seconds(10)) << "cancel must not drain "
                                                 "the remaining iterations";
  EXPECT_FALSE(engine.running());

  const auto& rep = engine.report(added.value());
  EXPECT_EQ(rep.outcome, SessionOutcome::kCancelled);
  EXPECT_EQ(rep.status.code(), common::StatusCode::kCancelled);
  EXPECT_GT(rep.completed_firings, 0u) << "ran for 20ms before the cancel";
  EXPECT_LT(rep.completed_firings, kIters * pipe.graph.task_count());
  // Cancel is graceful at iteration boundaries: no task may be more than
  // the pipeline depth (channel capacity per edge) ahead of the sink.
  for (const auto& t : rep.tasks) {
    EXPECT_LT(t.firings, kIters) << t.name;
  }
}

TEST(Engine, CancelIsIdempotentAndSafeOnFinishedSessions) {
  auto pipe = make_synthetic_chain(2, 100.0);
  Engine engine;
  auto added = engine.submit(pipe.graph, {0, 0}, 10);
  ASSERT_TRUE(added.is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_EQ(engine.report(0).outcome, SessionOutcome::kCompleted);
  engine.cancel(added.value());  // after completion: no-op
  engine.cancel(added.value());
  engine.cancel(99);  // out of range: no-op
  EXPECT_EQ(engine.report(0).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(engine.report(0).completed_firings, 20u);
}

TEST(Engine, CancelBeforeStartRetiresSessionImmediately) {
  auto pipe = endless_chain();
  Engine engine;
  auto added = engine.submit(pipe.graph, {0, 0, 0}, 1'000'000'000);
  ASSERT_TRUE(added.is_ok());
  engine.cancel(added.value());
  ASSERT_TRUE(engine.run().is_ok());
  const auto& rep = engine.report(added.value());
  EXPECT_EQ(rep.outcome, SessionOutcome::kCancelled);
  EXPECT_EQ(rep.completed_firings, 0u);
}

TEST(Engine, DeadlineExpiryCancelsWithDeadlineExceeded) {
  auto slow = endless_chain();
  auto fast = make_synthetic_chain(2, 100.0);
  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  SessionOptions deadline;
  deadline.timeout = std::chrono::milliseconds(30);
  auto s_slow =
      engine.submit(slow.graph, {0, 1, 0}, 200'000'000, deadline);
  auto s_fast = engine.submit(fast.graph, {1, 0}, 50);
  ASSERT_TRUE(s_slow.is_ok());
  ASSERT_TRUE(s_fast.is_ok());

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));

  const auto& slow_rep = engine.report(s_slow.value());
  EXPECT_EQ(slow_rep.outcome, SessionOutcome::kDeadlineExceeded);
  EXPECT_EQ(slow_rep.status.code(), common::StatusCode::kDeadlineExceeded);
  // The co-scheduled in-budget session must be untouched.
  const auto& fast_rep = engine.report(s_fast.value());
  EXPECT_EQ(fast_rep.outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(fast_rep.completed_firings, 100u);
}

TEST(Engine, GenerousDeadlineDoesNotFire) {
  auto pipe = make_synthetic_chain(3, 200.0);
  Engine engine;
  SessionOptions o;
  o.timeout = std::chrono::minutes(10);
  auto added = engine.submit(pipe.graph, {0, 0, 0}, 25, o);
  ASSERT_TRUE(added.is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_EQ(engine.report(added.value()).outcome, SessionOutcome::kCompleted);
}

// Regression: destroying an engine whose sessions are still back-pressured
// (producer parked on a full channel, consumer slow) must cancel and join
// instead of wedging on workers that sleep indefinitely.
TEST(Engine, DestructorCancelsBackPressuredSessions) {
  auto pipe = endless_chain();
  const auto t0 = std::chrono::steady_clock::now();
  {
    EngineOptions opts;
    opts.workers = 2;
    opts.channel_capacity = 1;  // maximal back-pressure
    Engine engine(opts);
    auto added = engine.submit(pipe.graph, {0, 1, 0}, 200'000'000);
    ASSERT_TRUE(added.is_ok());
    ASSERT_TRUE(engine.start().is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Engine goes out of scope with ~2e8 iterations outstanding and
    // workers parked on full/empty channels.
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
      << "destructor must cancel all sessions and join promptly";
}

TEST(Engine, ManySessionsFewWorkersNoStarvation) {
  // 16 sessions multiplexed over 2 workers: every session must finish
  // and every task must fire exactly its iteration count (no session
  // starved by its siblings, no firing lost at the wakeup boundary).
  constexpr std::size_t kSessions = 16;
  constexpr std::uint64_t kIters = 40;
  EngineOptions opts;
  opts.workers = 2;
  opts.channel_capacity = 2;
  Engine engine(opts);
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(kSessions);  // graphs must not reallocate after submit
  for (std::size_t s = 0; s < kSessions; ++s) {
    pipes.push_back(make_synthetic_chain(4, 500.0));
    const mpsoc::Mapping mapping = {s % 2, (s + 1) % 2, s % 2, (s + 1) % 2};
    auto added = engine.submit(pipes.back().graph, mapping, kIters);
    ASSERT_TRUE(added.is_ok()) << added.status().to_text();
  }
  const auto status = engine.run();
  ASSERT_TRUE(status.is_ok()) << status.to_text();
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto& rep = engine.report(s);
    EXPECT_EQ(rep.outcome, SessionOutcome::kCompleted) << "session " << s;
    EXPECT_EQ(rep.completed_firings, kIters * 4) << "session " << s;
    EXPECT_EQ(pipes[s].sink->tokens.load(), kIters) << "session " << s;
    for (const auto& t : rep.tasks) EXPECT_EQ(t.firings, kIters);
  }
}

TEST(Engine, ConcurrentWaitIsSafe) {
  // Two threads wait() on the same engine: exactly one joins the pool,
  // the other parks until kDone; both see the same result — never a
  // double-join (std::system_error) or a race on the thread vector.
  auto pipe = make_synthetic_chain(3, 2000.0);
  Engine engine;
  ASSERT_TRUE(engine.submit(pipe.graph, {0, 0, 0}, 500).is_ok());
  ASSERT_TRUE(engine.start().is_ok());
  common::Status a = common::Status(common::StatusCode::kInternal, "unset");
  std::thread other([&] { a = engine.wait(); });
  const auto b = engine.wait();
  other.join();
  EXPECT_TRUE(a.is_ok()) << a.to_text();
  EXPECT_TRUE(b.is_ok()) << b.to_text();
  EXPECT_EQ(engine.report(0).outcome, SessionOutcome::kCompleted);
}

TEST(Engine, StartWaitLifecycleIsEnforced) {
  auto pipe = make_synthetic_chain(2, 100.0);
  Engine engine;
  EXPECT_FALSE(engine.wait().is_ok()) << "wait before start must fail";
  ASSERT_TRUE(engine.submit(pipe.graph, {0, 0}, 5).is_ok());
  ASSERT_TRUE(engine.start().is_ok());
  EXPECT_FALSE(engine.start().is_ok()) << "double start must fail";
  // Dynamic admission: the engine accepts sessions after start().
  auto late = make_synthetic_chain(2, 100.0);
  auto mid = engine.submit(late.graph, {0, 0}, 5);
  ASSERT_TRUE(mid.is_ok()) << "submit while running must be admitted: "
                           << mid.status().to_text();
  ASSERT_TRUE(engine.wait().is_ok());
  EXPECT_TRUE(engine.wait().is_ok()) << "wait after done is idempotent";
  EXPECT_EQ(engine.report(0).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(engine.report(mid.value()).outcome, SessionOutcome::kCompleted);
  auto gone = make_synthetic_chain(2, 100.0);
  EXPECT_FALSE(engine.submit(gone.graph, {0, 0}, 5).is_ok())
      << "submit after wait() drained must be rejected";
}

TEST(Engine, PropagatesBodyErrors) {
  mpsoc::TaskGraph g("throws");
  mpsoc::Task t;
  t.name = "boom";
  t.body = [](mpsoc::TaskFiring& f) {
    if (f.iteration == 3) throw std::runtime_error("kernel fault");
  };
  (void)g.add_task(t);
  auto r = run_pipeline(g, {0}, 10);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().to_text().find("kernel fault"), std::string::npos);
}

TEST(Engine, SubmitAfterBodyErrorIsRejected) {
  // Once a body threw, the pool has exited even though wait() has not
  // been called yet: admitting more work would strand it (and leak the
  // caller's admission slot in a sharded front-end).
  mpsoc::TaskGraph bad("throws");
  mpsoc::Task t;
  t.name = "boom";
  t.body = [](mpsoc::TaskFiring&) { throw std::runtime_error("fault"); };
  (void)bad.add_task(t);
  Engine engine;
  ASSERT_TRUE(engine.submit(bad, {0}, 10).is_ok());
  ASSERT_TRUE(engine.start().is_ok());
  // The single firing throws almost immediately; poll until the error
  // latches, then submit.
  auto late = make_synthetic_chain(2, 100.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    auto added = engine.submit(late.graph, {0, 0}, 5);
    if (!added.is_ok()) {
      EXPECT_EQ(added.status().code(), common::StatusCode::kUnavailable);
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "submit must start failing once the engine stopped on error";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(engine.wait().is_ok()) << "the body error still surfaces";
}

TEST(Engine, BodyErrorAbortsEdgeFreeSiblingSessionPromptly) {
  // Regression: an edge-free (single-task) session has no channel bound,
  // so its drain loop must observe the engine stop flag at iteration
  // boundaries — not run its full 2e8 remaining iterations after a
  // sibling session's body threw.
  mpsoc::TaskGraph bad("throws");
  mpsoc::Task t;
  t.name = "boom";
  t.body = [](mpsoc::TaskFiring&) { throw std::runtime_error("fault"); };
  (void)bad.add_task(t);
  auto endless = make_synthetic_chain(1, 20000.0);  // lone source/sink

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.submit(bad, {0}, 10).is_ok());
  ASSERT_TRUE(engine.submit(endless.graph, {1}, 200'000'000).is_ok());
  const auto t0 = std::chrono::steady_clock::now();
  const auto status = engine.run();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(engine.report(1).outcome, SessionOutcome::kAborted);
}

// ---------------------------------------------------------------------------
// Dynamic admission and work stealing
// ---------------------------------------------------------------------------

TEST(Engine, SubmitWhileRunningCompletesBitIdentically) {
  constexpr std::uint64_t kIters = 48;
  // Reference digest: the same chain run isolated on one worker.
  std::uint64_t reference = 0;
  {
    auto pipe = make_synthetic_chain(4, 500.0);
    EngineOptions opts;
    opts.workers = 1;
    ASSERT_TRUE(run_pipeline(pipe.graph, {0, 0, 0, 0}, kIters, opts).is_ok());
    reference = pipe.sink->digest.load();
  }

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(6);
  std::vector<std::size_t> ids;
  pipes.push_back(make_synthetic_chain(4, 500.0));
  auto first = engine.submit(pipes.back().graph, {0, 1, 0, 1}, kIters);
  ASSERT_TRUE(first.is_ok());
  ids.push_back(first.value());
  ASSERT_TRUE(engine.start().is_ok());
  // Admit the rest mid-flight: tasks land on live workers immediately.
  for (int i = 0; i < 5; ++i) {
    pipes.push_back(make_synthetic_chain(4, 500.0));
    auto added = engine.submit(pipes.back().graph, {1, 0, 1, 0}, kIters);
    ASSERT_TRUE(added.is_ok()) << added.status().to_text();
    ids.push_back(added.value());
  }
  ASSERT_TRUE(engine.wait().is_ok());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& rep = engine.report(ids[i]);
    EXPECT_EQ(rep.outcome, SessionOutcome::kCompleted) << "session " << i;
    EXPECT_EQ(rep.completed_firings, kIters * 4) << "session " << i;
    EXPECT_EQ(pipes[i].sink->digest.load(), reference)
        << "dynamically admitted session " << i << " diverged";
    EXPECT_GT(rep.wall_s, 0.0);
  }
}

TEST(Engine, StartEmptyThenSubmitServesTraffic) {
  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok())
      << "an empty engine must start and park, ready for dynamic submits";
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(3);
  for (int i = 0; i < 3; ++i) {
    pipes.push_back(make_synthetic_chain(3, 300.0));
    ASSERT_TRUE(engine.submit(pipes.back().graph, {0, 1, 0}, 20).is_ok());
  }
  ASSERT_TRUE(engine.wait().is_ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(engine.report(static_cast<std::size_t>(i)).outcome,
              SessionOutcome::kCompleted);
    EXPECT_EQ(pipes[static_cast<std::size_t>(i)].sink->tokens.load(), 20u);
  }
}

TEST(Engine, SkewedStageStealingMigratesWorkAndStaysDeterministic) {
  // One 10x-slow stage, every task hinted at worker 0 of 4: under the
  // static binding three workers would idle while worker 0 wedges. With
  // stealing, tasks migrate and the other workers make progress — and
  // the output stays bit-identical to an isolated run.
  constexpr std::size_t kSessions = 8;
  constexpr std::uint64_t kIters = 64;
  std::uint64_t reference = 0;
  {
    auto pipe = make_skewed_chain(4, 2000.0, 1);
    EngineOptions opts;
    opts.workers = 1;
    ASSERT_TRUE(run_pipeline(pipe.graph, {0, 0, 0, 0}, kIters, opts).is_ok());
    reference = pipe.sink->digest.load();
  }

  EngineOptions opts;
  opts.workers = 4;
  Engine engine(opts);
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    pipes.push_back(make_skewed_chain(4, 2000.0, 1));
    ASSERT_TRUE(
        engine.submit(pipes.back().graph, {0, 0, 0, 0}, kIters).is_ok());
  }
  ASSERT_TRUE(engine.run().is_ok());

  std::uint64_t migrations = 0;
  std::uint64_t fired_off_home = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto& rep = engine.report(s);
    EXPECT_EQ(rep.outcome, SessionOutcome::kCompleted) << "session " << s;
    EXPECT_EQ(pipes[s].sink->digest.load(), reference)
        << "session " << s << " output depends on stealing";
    migrations += rep.task_migrations;
    for (const auto& t : rep.tasks) {
      EXPECT_EQ(t.pe, 0u) << "logical PE attribution must survive migration";
      EXPECT_EQ(t.home_worker, 0u);
      if (t.worker != t.home_worker) fired_off_home += t.firings;
    }
  }
  EXPECT_GT(migrations, 0u)
      << "8 sessions hinted at one worker of four must trigger stealing";
  EXPECT_GT(fired_off_home, 0u)
      << "other workers must make progress on migrated tasks";
  EXPECT_EQ(engine.steal_count(), migrations);
}

TEST(Engine, StealCancelSubmitRaceStress) {
  // TSan target: concurrent submits, cancels, and steals over a skewed
  // load. Every session must end completed or cancelled, and the engine
  // must drain promptly.
  constexpr std::uint64_t kIters = 160;
  EngineOptions opts;
  opts.workers = 4;
  opts.channel_capacity = 2;
  Engine engine(opts);
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(16);
  std::vector<std::size_t> ids;
  for (int s = 0; s < 8; ++s) {
    pipes.push_back(make_skewed_chain(4, 3000.0, 1));
    auto added = engine.submit(pipes.back().graph, {0, 0, 0, 0}, kIters);
    ASSERT_TRUE(added.is_ok());
    ids.push_back(added.value());
  }
  ASSERT_TRUE(engine.start().is_ok());
  std::thread canceller([&] {
    for (std::size_t i = 0; i < 8; i += 2) {
      engine.cancel(ids[i]);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Submit more sessions while cancels and steals are in flight.
  std::vector<std::size_t> late_ids;
  for (int s = 0; s < 8; ++s) {
    pipes.push_back(make_skewed_chain(4, 3000.0, 1));
    auto added = engine.submit(pipes.back().graph, {1, 1, 1, 1}, 32);
    ASSERT_TRUE(added.is_ok()) << added.status().to_text();
    late_ids.push_back(added.value());
  }
  canceller.join();
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(engine.wait().is_ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(60));
  for (const std::size_t id : ids) {
    const auto outcome = engine.report(id).outcome;
    EXPECT_TRUE(outcome == SessionOutcome::kCompleted ||
                outcome == SessionOutcome::kCancelled)
        << to_string(outcome);
  }
  for (const std::size_t id : late_ids) {
    EXPECT_EQ(engine.report(id).outcome, SessionOutcome::kCompleted);
  }
}

// ---------------------------------------------------------------------------
// Hot path: batched firing + payload recycling
// ---------------------------------------------------------------------------

// Stale-byte regression: a producer emitting *shrinking and growing*
// variable-length payloads through a recycled channel. If the engine
// ever handed a body a non-cleared recycled buffer (or resize left old
// tail bytes visible), the consumer's exact-content check would trip.
TEST(Engine, RecycledOutputsArriveClearedWithNoStaleBytes) {
  constexpr std::uint64_t kIters = 300;
  mpsoc::TaskGraph g("recycle-probe");
  mpsoc::Task prod;
  prod.name = "producer";
  prod.work_ops = 10;
  std::atomic<std::uint64_t> dirty{0};
  prod.body = [&dirty](mpsoc::TaskFiring& f) {
    if (!f.outputs[0].empty()) dirty.fetch_add(1);
    // Length cycles 1..23 so a recycled buffer regularly held *more*
    // bytes than the current payload needs.
    const std::size_t len = 1 + (f.iteration * 7) % 23;
    f.outputs[0].resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      f.outputs[0][i] = static_cast<std::uint8_t>(f.iteration + i);
    }
  };
  mpsoc::Task cons;
  cons.name = "consumer";
  cons.work_ops = 10;
  std::atomic<std::uint64_t> bad{0};
  cons.body = [&bad](mpsoc::TaskFiring& f) {
    const auto& in = *f.inputs[0];
    const std::size_t len = 1 + (f.iteration * 7) % 23;
    if (in.size() != len) {
      bad.fetch_add(1);
      return;
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (in[i] != static_cast<std::uint8_t>(f.iteration + i)) {
        bad.fetch_add(1);
        return;
      }
    }
  };
  const auto p = g.add_task(prod);
  const auto c = g.add_task(cons);
  (void)g.add_edge(p, c, 23);

  EngineOptions opts;
  opts.workers = 2;
  opts.channel_capacity = 4;
  auto report = run_pipeline(g, {0, 1}, kIters, opts);
  ASSERT_TRUE(report.is_ok()) << report.status().to_text();
  EXPECT_EQ(dirty.load(), 0u) << "recycled outputs must arrive cleared";
  EXPECT_EQ(bad.load(), 0u) << "stale bytes leaked across iterations";
  EXPECT_GT(report.value().payloads_recycled, 0u)
      << "the free-list ring never engaged";
}

// Free-list bounds under back-pressure: a fast producer against a slow
// consumer keeps every ring (data and free) at its bound; recycling must
// neither grow channels past capacity nor lose tokens.
TEST(Engine, RecyclingHoldsBoundsUnderBackPressure) {
  mpsoc::TaskGraph g("recycle-backpressure");
  mpsoc::Task prod;
  prod.name = "producer";
  prod.body = [](mpsoc::TaskFiring& f) {
    f.outputs[0].resize(64);
    f.outputs[0][0] = static_cast<std::uint8_t>(f.iteration);
  };
  mpsoc::Task cons;
  cons.name = "consumer";
  std::atomic<std::uint64_t> seen{0};
  cons.body = [&seen](mpsoc::TaskFiring& f) {
    volatile double x = 1.0;
    for (int i = 0; i < 20000; ++i) x = x * 1.0000001 + 0.5;
    seen.fetch_add((*f.inputs[0])[0]);
  };
  const auto p = g.add_task(prod);
  const auto c = g.add_task(cons);
  (void)g.add_edge(p, c, 64);

  EngineOptions opts;
  opts.workers = 2;
  opts.channel_capacity = 3;
  constexpr std::uint64_t kIters = 200;
  auto report = run_pipeline(g, {0, 1}, kIters, opts);
  ASSERT_TRUE(report.is_ok()) << report.status().to_text();
  EXPECT_LE(report.value().max_channel_occupancy, 3u);
  EXPECT_GT(report.value().payloads_recycled, 0u);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    expect += static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(seen.load(), expect) << "recycling lost or corrupted a token";
}

// Satellite regression: batching + stealing must stay bit-identical
// across every worker count — a task mid-batch is popped out of its
// owner's queue, so no thief can split a batch.
TEST(Engine, BatchingWithStealingBitIdenticalAcrossWorkerCounts) {
  constexpr std::uint64_t kIters = 48;
  std::uint64_t reference = 0;
  bool have_reference = false;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto pipe = make_skewed_chain(5, 2000.0, 2, 8.0);
    EngineOptions opts;
    opts.workers = workers;
    mpsoc::Mapping mapping(5, 0);  // everything hinted at worker 0
    auto report = run_pipeline(pipe.graph, mapping, kIters, opts);
    ASSERT_TRUE(report.is_ok()) << report.status().to_text();
    EXPECT_EQ(pipe.sink->tokens.load(), kIters);
    if (!have_reference) {
      reference = pipe.sink->digest.load();
      have_reference = true;
    } else {
      EXPECT_EQ(pipe.sink->digest.load(), reference)
          << "digest diverged at workers " << workers;
    }
  }
}

// Blocking-stage stealing (a modeled accelerator wait): sessions whose
// accelerator-wait stage is hinted at one worker only overlap their
// waits if stealing migrates the blocked tasks — and the digest must
// not care. Also exercises bodies blocking while thieves raid the
// owner's queue, which the old fire-under-the-queue-mutex engine
// serialized (TSan target).
TEST(Engine, BlockingStageStealingOverlapsWaitsDeterministically) {
  constexpr std::size_t kSessions = 4;
  constexpr std::uint64_t kIters = 6;
  std::uint64_t reference = 0;
  {
    auto pipe = make_blocking_skewed_chain(4, 1000.0, 2, 200.0);
    EngineOptions opts;
    opts.workers = 1;
    ASSERT_TRUE(run_pipeline(pipe.graph, {0, 0, 0, 0}, kIters, opts).is_ok());
    reference = pipe.sink->digest.load();
  }
  EngineOptions opts;
  opts.workers = 4;
  Engine engine(opts);
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    pipes.push_back(make_blocking_skewed_chain(4, 1000.0, 2, 200.0));
    ASSERT_TRUE(
        engine.submit(pipes.back().graph, {0, 0, 0, 0}, kIters).is_ok());
  }
  ASSERT_TRUE(engine.run().is_ok());
  std::uint64_t migrations = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(engine.report(s).outcome, SessionOutcome::kCompleted);
    EXPECT_EQ(pipes[s].sink->digest.load(), reference) << "session " << s;
    migrations += engine.report(s).task_migrations;
  }
  EXPECT_GT(migrations, 0u)
      << "blocked-stage tasks hinted at one worker must migrate";
}

// Mid-batch wakeup: a slow producer's batch must not serialize the
// pipeline. Two blocking stages on two workers overlap only if the
// first token of a batch wakes the downstream worker immediately —
// with the notify deferred to batch end, the stages run as alternating
// bursts and the wall roughly doubles.
TEST(Engine, SlowBatchOverlapsDownstreamStage) {
  constexpr std::uint64_t kIters = 8;
  constexpr double kBlockUs = 2000.0;
  mpsoc::TaskGraph g("overlap");
  auto stage = [&](const char* name) {
    mpsoc::Task t;
    t.name = name;
    t.work_ops = 10;
    return t;
  };
  const auto a = g.add_task(stage("a"));
  const auto b = g.add_task(stage("b"));
  (void)g.add_edge(a, b, 8);
  const auto block_body = [](mpsoc::TaskFiring& f) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(2000.0));
    if (!f.outputs.empty()) f.store(0, &f.iteration, sizeof(f.iteration));
  };
  g.set_body(a, block_body);
  g.set_body(b, block_body);

  EngineOptions opts;
  opts.workers = 2;
  opts.channel_capacity = 8;
  const auto t0 = std::chrono::steady_clock::now();
  auto report = run_pipeline(g, {0, 1}, kIters, opts);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(report.is_ok()) << report.status().to_text();
  // Overlapped: ~(kIters + 1) blocks. Serialized bursts: ~2 * kIters.
  // Generous margin for scheduler noise, still well below serialized.
  EXPECT_LT(wall, 2.0 * static_cast<double>(kIters) * kBlockUs * 1e-6 * 0.85)
      << "downstream stage slept through the producer's batch";
}

// A victim blocked inside a popped task must still be stealable-from:
// the popped task counts toward the thief's leave-one floor, so the
// victim's last *queued* ready task can migrate instead of starving
// behind the block while another worker idles.
TEST(Engine, LastQueuedTaskIsStealableWhileOwnerBlocksMidBatch) {
  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  // Lone blocking task hinted at worker 0: ~2ms accelerator wait per
  // firing, batched — worker 0 spends nearly all its time popped into
  // this task's batches.
  auto blocker = make_blocking_skewed_chain(1, 100.0, 0, 2000.0);
  ASSERT_TRUE(engine.submit(blocker.graph, {0}, 20).is_ok());
  ASSERT_TRUE(engine.start().is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Admit a fast task onto the same (blocked) worker. It lands queued
  // behind the popped blocker; worker 1 is idle. Only the inflight-
  // aware steal rule lets it migrate.
  auto runner = make_synthetic_chain(1, 200.0);
  auto late = engine.submit(runner.graph, {0}, 64);
  ASSERT_TRUE(late.is_ok());
  ASSERT_TRUE(engine.wait().is_ok());
  ASSERT_EQ(engine.report(0).outcome, SessionOutcome::kCompleted);
  ASSERT_EQ(engine.report(late.value()).outcome, SessionOutcome::kCompleted);
  EXPECT_GE(engine.report(0).task_migrations +
                engine.report(late.value()).task_migrations,
            1u)
      << "the queued task starved behind the blocked batch";
  EXPECT_EQ(runner.sink->tokens.load(), 64u);
}

TEST(Engine, PinWorkersRunsToCompletionOrFailsLoudly) {
  EngineOptions opts;
  opts.workers = 2;
  opts.pin_workers = true;
  Engine engine(opts);
  auto pipe = make_synthetic_chain(3, 500.0);
  ASSERT_TRUE(engine.submit(pipe.graph, {0, 1, 0}, 20).is_ok());
  const auto status = engine.run();
#if defined(__linux__)
  ASSERT_TRUE(status.is_ok()) << status.to_text();
  EXPECT_EQ(engine.report(0).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(pipe.sink->tokens.load(), 20u);
#else
  // Unsupported platforms must surface a Status, never silently unpin.
  EXPECT_FALSE(status.is_ok());
#endif
}

TEST(Engine, ReportExposesPerTaskMeanServiceTime) {
  auto pipe = make_synthetic_chain(3, 2000.0);
  auto report = run_pipeline(pipe.graph, {0, 0, 0}, 16);
  ASSERT_TRUE(report.is_ok());
  const auto& rep = report.value();
  const auto means = rep.mean_service_times();
  ASSERT_EQ(means.size(), rep.tasks.size());
  for (std::size_t t = 0; t < rep.tasks.size(); ++t) {
    EXPECT_GT(means[t], 0.0) << "calibration input must be populated";
    EXPECT_DOUBLE_EQ(means[t], rep.tasks[t].mean_firing_s());
  }
}

// ---------------------------------------------------------------------------
// Real-kernel pipelines
// ---------------------------------------------------------------------------

TEST(VideoPipeline, BitIdenticalAcrossWorkerCounts) {
  constexpr std::uint64_t kFrames = 8;
  VideoPipelineConfig cfg;
  cfg.width = 32;
  cfg.height = 32;

  std::uint32_t ref_bits = 0, ref_recon = 0;
  std::uint64_t ref_bytes = 0;
  for (const std::size_t workers : {1u, 4u}) {
    auto pipe = make_video_encoder_pipeline(cfg);
    ASSERT_TRUE(pipe.graph.fully_executable());
    EngineOptions opts;
    opts.workers = workers;
    const mpsoc::Mapping mapping(pipe.graph.task_count(),
                                 0);  // PEs resolved mod pool anyway
    mpsoc::Mapping spread = mapping;
    for (std::size_t i = 0; i < spread.size(); ++i) spread[i] = i % 4;
    auto report = run_pipeline(pipe.graph, spread, kFrames, opts);
    ASSERT_TRUE(report.is_ok()) << report.status().to_text();

    EXPECT_EQ(pipe.sink->frames_coded, kFrames);
    EXPECT_EQ(pipe.sink->frames_reconstructed, kFrames);
    EXPECT_GT(pipe.sink->bitstream_bytes, 0u);
    if (workers == 1) {
      ref_bits = pipe.sink->bitstream_crc;
      ref_recon = pipe.sink->recon_crc;
      ref_bytes = pipe.sink->bitstream_bytes;
    } else {
      EXPECT_EQ(pipe.sink->bitstream_crc, ref_bits)
          << "bitstream must be bit-identical at " << workers << " workers";
      EXPECT_EQ(pipe.sink->recon_crc, ref_recon);
      EXPECT_EQ(pipe.sink->bitstream_bytes, ref_bytes);
    }
  }
}

TEST(VideoPipeline, CifStreamMatchesRecordedGolden) {
  // Recorded from the original per-pixel scene renderer: the capture
  // stage's luma-only render must leave the encoded stream unchanged.
  VideoPipelineConfig cfg;
  cfg.width = 352;
  cfg.height = 288;
  auto pipe = make_video_encoder_pipeline(cfg);
  mpsoc::Mapping mapping(pipe.graph.task_count(), 0);
  for (std::size_t i = 0; i < mapping.size(); ++i) mapping[i] = i % 2;
  EngineOptions opts;
  opts.workers = 2;
  auto report = run_pipeline(pipe.graph, mapping, 8, opts);
  ASSERT_TRUE(report.is_ok()) << report.status().to_text();
  EXPECT_EQ(pipe.sink->frames_coded, 8u);
  EXPECT_EQ(pipe.sink->bitstream_crc, 0x6C26C690u);
  EXPECT_EQ(pipe.sink->recon_crc, 0x35DDE574u);
  EXPECT_EQ(pipe.sink->bitstream_bytes, 13478u);
  EXPECT_LE(report.value().max_channel_occupancy, 2u)
      << "CIF frame edges are double-buffered";
}

TEST(VideoPipeline, RejectsFramesThatAreNotWholeMacroblocks) {
  VideoPipelineConfig cfg;
  cfg.width = 72;
  cfg.height = 40;
  EXPECT_THROW((void)make_video_encoder_pipeline(cfg), std::invalid_argument);
  cfg.width = 0;
  cfg.height = 64;
  EXPECT_THROW((void)make_video_encoder_pipeline(cfg), std::invalid_argument);
  cfg.width = 64;
  cfg.height = 48;
  EXPECT_TRUE(make_video_encoder_pipeline(cfg).graph.fully_executable());
}

TEST(AudioPipeline, BitIdenticalAcrossWorkerCounts) {
  constexpr std::uint64_t kGranules = 12;
  AudioPipelineConfig cfg;

  std::uint32_t ref_crc = 0;
  for (const std::size_t workers : {1u, 3u}) {
    auto pipe = make_audio_encoder_pipeline(cfg);
    ASSERT_TRUE(pipe.graph.fully_executable());
    EngineOptions opts;
    opts.workers = workers;
    mpsoc::Mapping mapping(pipe.graph.task_count(), 0);
    for (std::size_t i = 0; i < mapping.size(); ++i) mapping[i] = i % 3;
    auto report = run_pipeline(pipe.graph, mapping, kGranules, opts);
    ASSERT_TRUE(report.is_ok()) << report.status().to_text();
    EXPECT_EQ(pipe.sink->granules_packed, kGranules);
    EXPECT_GT(pipe.sink->frame_bytes, 0u);
    if (workers == 1) {
      ref_crc = pipe.sink->frame_crc;
    } else {
      EXPECT_EQ(pipe.sink->frame_crc, ref_crc);
    }
  }
}

// ---------------------------------------------------------------------------
// Predicted vs measured
// ---------------------------------------------------------------------------

TEST(Trace, ComparisonIsSaneForVideoPipeline) {
  VideoPipelineConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  auto pipe = make_video_encoder_pipeline(cfg);
  const auto platform = core::device_platform(core::DeviceClass::kVideoCamera);
  const auto mapped =
      mpsoc::map_graph(pipe.graph, platform, mpsoc::MapperKind::kHeft);
  ASSERT_TRUE(mapped.schedule.feasible);

  auto report = run_pipeline(pipe.graph, mapped.mapping, 6);
  ASSERT_TRUE(report.is_ok()) << report.status().to_text();
  const auto& sr = report.value();

  // Sanity bounds: wall clock positive, every task fired every iteration,
  // busy time is contained in wall * workers (loose upper bound).
  EXPECT_GT(sr.wall_s, 0.0);
  EXPECT_GT(sr.measured_ii_s(), 0.0);
  for (const auto& t : sr.tasks) {
    EXPECT_EQ(t.firings, 6u) << t.name;
  }
  EXPECT_LE(sr.total_busy_s(), sr.wall_s * static_cast<double>(sr.tasks.size()));

  const auto cmp = compare_with_schedule(sr, pipe.graph, platform,
                                         mapped.mapping, mapped.schedule);
  EXPECT_GT(cmp.predicted_ii_s, 0.0);
  EXPECT_GT(cmp.measured_ii_s, 0.0);
  EXPECT_GT(cmp.ii_error_ratio, 0.0);
  ASSERT_EQ(cmp.stages.size(), pipe.graph.task_count());
  double pred_share = 0.0, meas_share = 0.0;
  for (const auto& s : cmp.stages) {
    pred_share += s.predicted_share;
    meas_share += s.measured_share;
  }
  EXPECT_NEAR(pred_share, 1.0, 1e-9);
  EXPECT_NEAR(meas_share, 1.0, 1e-9);
  EXPECT_GE(cmp.stage_rank_correlation, -1.0);
  EXPECT_LE(cmp.stage_rank_correlation, 1.0);
  EXPECT_FALSE(format_comparison(cmp).empty());
}

// ---------------------------------------------------------------------------
// Boundary gates (async I/O hooks)
// ---------------------------------------------------------------------------

// A gated task parks (no spin, no inline block) until an external thread
// opens the gate and calls the task's waker — the engine side of the
// async I/O boundary protocol, exercised here without the io subsystem.
TEST(Engine, GatedTaskParksUntilExternalWakeAndBillsIoStall) {
  constexpr std::uint64_t kIters = 8;
  std::atomic<std::uint64_t> credits{0};
  mpsoc::TaskGraph g("gated");
  mpsoc::Task src_task;
  src_task.name = "src";
  src_task.work_ops = 10;
  mpsoc::Task snk_task;
  snk_task.name = "snk";
  snk_task.work_ops = 10;
  const auto src = g.add_task(std::move(src_task));
  const auto snk = g.add_task(std::move(snk_task));
  ASSERT_TRUE(g.add_edge(src, snk, 8).is_ok());
  g.set_body(src, [&credits](mpsoc::TaskFiring& f) {
    credits.fetch_sub(1, std::memory_order_acq_rel);
    f.outputs[0] = mpsoc::Payload{static_cast<std::uint8_t>(f.iteration)};
  });
  g.set_gate(src, [&credits] {
    return credits.load(std::memory_order_acquire) > 0;
  });
  std::atomic<std::uint64_t> sum{0};
  g.set_body(snk, [&sum](mpsoc::TaskFiring& f) {
    sum.fetch_add((*f.inputs[0])[0], std::memory_order_relaxed);
  });

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1}, kIters);
  ASSERT_TRUE(sid.is_ok());
  auto waker = engine.task_waker(sid.value(), src);
  ASSERT_TRUE(waker.is_ok()) << waker.status().to_text();
  // Drip-feed credits from outside: each grant must wake the parked
  // owner; between grants every worker sleeps (the test would hang, and
  // the deadline below fire, if a wakeup were lost).
  std::thread producer([&, wake = waker.value()] {
    for (std::uint64_t i = 0; i < kIters; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      credits.fetch_add(1, std::memory_order_acq_rel);
      wake();
    }
  });
  ASSERT_TRUE(engine.wait().is_ok());
  producer.join();
  const auto& rep = engine.report(sid.value());
  ASSERT_EQ(rep.outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(sum.load(), kIters * (kIters - 1) / 2);
  EXPECT_GT(rep.tasks[src].io_stalls, 0u);
  EXPECT_GT(rep.tasks[src].io_stall_s, 0.0);
  EXPECT_GT(rep.io_stall_s, 0.0);
  EXPECT_EQ(rep.tasks[snk].io_stalls, 0u) << "ungated task never stalls";
}

// A task that never fires must report fired() == false and a zero mean
// firing time, and format_comparison renders its unset frame-journey
// columns as '-' (a 0.00 would read as an impossibly fast firing). The
// never-fired state is forced deterministically: the
// source's gate never opens, so neither it nor its starved sink can run
// before the session is cancelled.
TEST(Engine, NeverFiredTaskReportsUnsetFiringTimes) {
  mpsoc::TaskGraph g("gated");
  mpsoc::Task src_task;
  src_task.name = "src";
  src_task.work_ops = 10;
  mpsoc::Task snk_task;
  snk_task.name = "snk";
  snk_task.work_ops = 10;
  const auto src = g.add_task(std::move(src_task));
  const auto snk = g.add_task(std::move(snk_task));
  ASSERT_TRUE(g.add_edge(src, snk, 4).is_ok());
  g.set_body(src, [](mpsoc::TaskFiring& f) {
    f.outputs[0] = mpsoc::Payload{1};
  });
  g.set_gate(src, [] { return false; });  // the I/O never arrives
  g.set_body(snk, [](mpsoc::TaskFiring&) {});

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1}, 4);
  ASSERT_TRUE(sid.is_ok());
  engine.cancel(sid.value());
  ASSERT_TRUE(engine.wait().is_ok());

  const auto& rep = engine.report(sid.value());
  EXPECT_EQ(rep.outcome, SessionOutcome::kCancelled);
  for (const auto& t : rep.tasks) {
    ASSERT_EQ(t.firings, 0u) << t.name;
    EXPECT_FALSE(t.fired()) << t.name;
    EXPECT_DOUBLE_EQ(t.mean_firing_s(), 0.0) << t.name;
  }

  const auto platform = core::device_platform(core::DeviceClass::kVideoCamera);
  const auto cmp =
      compare_with_schedule(rep, g, platform, {0, 1}, mpsoc::Schedule{});
  ASSERT_EQ(cmp.stages.size(), 2u);
  // The table renders unset as a right-aligned '-' in a 10-wide column.
  EXPECT_NE(format_comparison(cmp).find("         -"), std::string::npos);
}

TEST(Trace, ComparisonCarriesIoWaitColumn) {
  SessionReport measured;
  measured.graph = "gated";
  measured.iterations = 4;
  measured.wall_s = 0.4;
  TaskStats io_task;
  io_task.name = "src";
  io_task.firings = 4;
  io_task.busy_s = 0.04;
  io_task.io_stalls = 4;
  io_task.io_stall_s = 0.2;
  measured.tasks.push_back(io_task);
  mpsoc::TaskGraph g("gated");
  mpsoc::Task stage;
  stage.name = "src";
  stage.work_ops = 100;
  (void)g.add_task(std::move(stage));
  const auto platform = core::device_platform(core::DeviceClass::kVideoCamera);
  mpsoc::Schedule predicted;
  const auto cmp =
      compare_with_schedule(measured, g, platform, {0}, predicted);
  ASSERT_EQ(cmp.stages.size(), 1u);
  EXPECT_DOUBLE_EQ(cmp.stages[0].io_wait_s, 0.05);
  EXPECT_NE(format_comparison(cmp).find("io-wait"), std::string::npos);
}

TEST(Trace, EvaluateMeasuredFillsDeploymentReport) {
  VideoPipelineConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  auto pipe = make_video_encoder_pipeline(cfg);
  const auto platform = core::device_platform(core::DeviceClass::kVideoCamera);
  auto report = evaluate_measured(pipe.graph, platform,
                                  mpsoc::MapperKind::kHeft, 30.0, 4);
  ASSERT_TRUE(report.is_ok()) << report.status().to_text();
  const auto& r = report.value();
  EXPECT_TRUE(r.has_measurement());
  EXPECT_GT(r.measured_wall_s, 0.0);
  EXPECT_GT(r.measured_throughput_hz, 0.0);
  EXPECT_GT(r.model_error_ratio, 0.0);
  EXPECT_NE(core::report_row(r).find("meas"), std::string::npos);
}

}  // namespace
}  // namespace mmsoc::runtime
