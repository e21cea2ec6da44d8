// Tests for the sharded multi-engine front-end: admission control
// (bounded in-flight sessions, reject-with-reason on saturation),
// least-loaded placement over live in-flight counts, dynamic admission
// into running shards, retire-on-complete load accounting (slots free on
// completion and on cancel-retirement), ticketed cancellation, and
// graceful degradation when submissions far exceed capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/pipelines.h"
#include "runtime/shard.h"

namespace mmsoc::runtime {
namespace {

mpsoc::Mapping chain_mapping(std::size_t tasks, std::size_t stride) {
  mpsoc::Mapping m(tasks);
  for (std::size_t t = 0; t < tasks; ++t) m[t] = t % (stride == 0 ? 1 : stride);
  return m;
}

TEST(ShardedEngine, RejectsWithReasonWhenAllShardsSaturated) {
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.max_sessions_per_shard = 2;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);

  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(10);
  std::vector<SessionTicket> tickets;
  std::size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    pipes.push_back(make_synthetic_chain(3, 200.0));
    auto r = sharded.submit(pipes.back().graph, chain_mapping(3, 1), 20);
    if (r.is_ok()) {
      tickets.push_back(r.value());
    } else {
      ++rejected;
      EXPECT_EQ(r.status().code(), common::StatusCode::kResourceExhausted);
      EXPECT_NE(r.status().message().find("admission reject"),
                std::string::npos);
    }
  }
  EXPECT_EQ(tickets.size(), 4u) << "2 shards x 2 in-flight";
  EXPECT_EQ(rejected, 6u);

  const auto stats = sharded.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_NEAR(stats.reject_rate(), 0.6, 1e-12);

  const auto status = sharded.run();
  ASSERT_TRUE(status.is_ok()) << status.to_text();
  for (const auto t : tickets) {
    EXPECT_EQ(sharded.report(t).outcome, SessionOutcome::kCompleted);
    EXPECT_EQ(sharded.report(t).completed_firings, 60u);
  }
}

TEST(ShardedEngine, LeastLoadedPlacementBalancesShards) {
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.max_sessions_per_shard = 8;
  ShardedEngine sharded(opts);
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(12);
  for (int i = 0; i < 12; ++i) {
    pipes.push_back(make_synthetic_chain(2, 100.0));
    auto r = sharded.submit(pipes.back().graph, chain_mapping(2, 1), 4);
    ASSERT_TRUE(r.is_ok()) << r.status().to_text();
  }
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    EXPECT_EQ(sharded.session_count(s), 3u) << "shard " << s;
  }
  EXPECT_EQ(sharded.total_sessions(), 12u);
}

TEST(ShardedEngine, SaturationDegradesGracefully) {
  // Submissions >> capacity: the accepted subset completes with correct
  // output, the overflow is rejected, nothing hangs or oversubscribes.
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.max_sessions_per_shard = 8;
  opts.engine.workers = 2;
  opts.engine.channel_capacity = 2;
  ShardedEngine sharded(opts);

  // Reference digest: one isolated run of the same chain.
  std::uint64_t reference = 0;
  {
    auto pipe = make_synthetic_chain(4, 300.0);
    auto r = run_pipeline(pipe.graph, chain_mapping(4, 1), 16);
    ASSERT_TRUE(r.is_ok());
    reference = pipe.sink->digest.load();
  }

  constexpr int kSubmitted = 128;
  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(kSubmitted);
  std::vector<SessionTicket> tickets;
  for (int i = 0; i < kSubmitted; ++i) {
    pipes.push_back(make_synthetic_chain(4, 300.0));
    auto r = sharded.submit(pipes.back().graph, chain_mapping(4, 2), 16);
    if (r.is_ok()) tickets.push_back(r.value());
  }
  EXPECT_EQ(tickets.size(), 32u) << "4 shards x 8 in-flight";
  EXPECT_EQ(sharded.stats().rejected,
            static_cast<std::uint64_t>(kSubmitted) - 32u);

  const auto status = sharded.run();
  ASSERT_TRUE(status.is_ok()) << status.to_text();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto& rep = sharded.report(tickets[i]);
    EXPECT_EQ(rep.outcome, SessionOutcome::kCompleted) << "ticket " << i;
    EXPECT_EQ(pipes[i].sink->digest.load(), reference)
        << "accepted session " << i << " output diverged under load";
  }
}

TEST(ShardedEngine, CancelByTicketWhileRunning) {
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.max_sessions_per_shard = 4;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);

  auto endless = make_synthetic_chain(3, 20000.0);
  auto quick = make_synthetic_chain(3, 200.0);
  auto t_endless =
      sharded.submit(endless.graph, chain_mapping(3, 1), 200'000'000);
  auto t_quick = sharded.submit(quick.graph, chain_mapping(3, 1), 10);
  ASSERT_TRUE(t_endless.is_ok());
  ASSERT_TRUE(t_quick.is_ok());
  EXPECT_NE(t_endless.value().shard, t_quick.value().shard)
      << "least-loaded placement must spread the two sessions";

  ASSERT_TRUE(sharded.start().is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sharded.cancel(t_endless.value());
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(sharded.wait().is_ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));

  EXPECT_EQ(sharded.report(t_endless.value()).outcome,
            SessionOutcome::kCancelled);
  EXPECT_EQ(sharded.report(t_quick.value()).outcome,
            SessionOutcome::kCompleted);
}

TEST(ShardedEngine, PerSessionDeadlinePropagatesThroughSubmit) {
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.max_sessions_per_shard = 2;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);
  auto endless = make_synthetic_chain(2, 20000.0);
  SessionOptions deadline;
  deadline.timeout = std::chrono::milliseconds(25);
  auto t = sharded.submit(endless.graph, chain_mapping(2, 1), 200'000'000,
                          deadline);
  ASSERT_TRUE(t.is_ok());
  ASSERT_TRUE(sharded.run().is_ok());
  EXPECT_EQ(sharded.report(t.value()).outcome,
            SessionOutcome::kDeadlineExceeded);
}

TEST(ShardedEngine, LifecycleErrors) {
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);
  EXPECT_FALSE(sharded.run().is_ok())
      << "a blocking run of zero admitted sessions must fail";

  ShardedEngine sharded2(opts);
  auto pipe = make_synthetic_chain(2, 100.0);
  ASSERT_TRUE(sharded2.submit(pipe.graph, chain_mapping(2, 1), 5).is_ok());
  ASSERT_TRUE(sharded2.start().is_ok());
  // Dynamic admission: submits keep landing after start()...
  auto late = make_synthetic_chain(2, 100.0);
  auto ticket = sharded2.submit(late.graph, chain_mapping(2, 1), 5);
  ASSERT_TRUE(ticket.is_ok())
      << "submit into running shards must be admitted: "
      << ticket.status().to_text();
  ASSERT_TRUE(sharded2.wait().is_ok());
  EXPECT_EQ(sharded2.report(ticket.value()).outcome,
            SessionOutcome::kCompleted);
  // ...but not once wait() drained the shards. Lifecycle misuse is a
  // failure, not an admission reject: the overload metric stays clean.
  auto gone = make_synthetic_chain(2, 100.0);
  EXPECT_FALSE(sharded2.submit(gone.graph, chain_mapping(2, 1), 5).is_ok())
      << "submit after wait must be rejected";
  EXPECT_EQ(sharded2.stats().failed, 1u);
  EXPECT_EQ(sharded2.stats().rejected, 0u);
  EXPECT_NEAR(sharded2.stats().reject_rate(), 0.0, 1e-12);
}

TEST(ShardedEngine, DynamicAdmissionIntoRunningShards) {
  // Start the front-end with zero traffic, then pour sessions in: every
  // one must be admitted onto a live shard and complete with the same
  // digest as an isolated run.
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.max_sessions_per_shard = 8;
  opts.engine.workers = 2;
  ShardedEngine sharded(opts);
  ASSERT_TRUE(sharded.start().is_ok()) << "idle shards must start and park";

  std::uint64_t reference = 0;
  {
    auto pipe = make_synthetic_chain(4, 300.0);
    ASSERT_TRUE(run_pipeline(pipe.graph, chain_mapping(4, 1), 16).is_ok());
    reference = pipe.sink->digest.load();
  }

  std::vector<SyntheticPipeline> pipes;
  pipes.reserve(10);
  std::vector<SessionTicket> tickets;
  for (int i = 0; i < 10; ++i) {
    pipes.push_back(make_synthetic_chain(4, 300.0));
    auto r = sharded.submit(pipes.back().graph, chain_mapping(4, 2), 16);
    ASSERT_TRUE(r.is_ok()) << r.status().to_text();
    tickets.push_back(r.value());
  }
  ASSERT_TRUE(sharded.wait().is_ok());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(sharded.report(tickets[i]).outcome, SessionOutcome::kCompleted);
    EXPECT_EQ(pipes[i].sink->digest.load(), reference)
        << "dynamically admitted session " << i << " diverged";
  }
  const auto stats = sharded.stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.completed, 10u);
}

TEST(ShardedEngine, CompletionFreesAdmissionSlot) {
  // Retire-on-complete load accounting: with a single one-session slot,
  // a second submit must be admitted once the first session finishes —
  // not rejected against a stale in-flight count.
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.max_sessions_per_shard = 1;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);
  ASSERT_TRUE(sharded.start().is_ok());

  auto first = make_synthetic_chain(2, 100.0);
  auto t1 = sharded.submit(first.graph, chain_mapping(2, 1), 5);
  ASSERT_TRUE(t1.is_ok());
  // Wait for the slot to free (the completion callback fires from a
  // worker thread shortly after the last firing).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sharded.stats().completed < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "completion never decremented the in-flight count";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sharded.inflight(0), 0u);

  auto second = make_synthetic_chain(2, 100.0);
  auto t2 = sharded.submit(second.graph, chain_mapping(2, 1), 5);
  ASSERT_TRUE(t2.is_ok())
      << "slot freed by completion must be reusable: "
      << t2.status().to_text();
  ASSERT_TRUE(sharded.wait().is_ok());
  EXPECT_EQ(sharded.report(t2.value()).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(sharded.stats().completed, 2u);
  EXPECT_EQ(sharded.stats().rejected, 0u);
}

TEST(ShardedEngine, CancelFreesAdmissionSlotAfterRetirement) {
  // A cancelled session returns its slot once its tasks fully retire —
  // the in-flight count tracks capacity consumption, not submissions.
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.max_sessions_per_shard = 1;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);
  ASSERT_TRUE(sharded.start().is_ok());
  auto endless = make_synthetic_chain(3, 20000.0);
  auto t = sharded.submit(endless.graph, chain_mapping(3, 1), 200'000'000);
  ASSERT_TRUE(t.is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sharded.cancel(t.value());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sharded.inflight(0) != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "retirement never freed the admission slot";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto next = make_synthetic_chain(2, 100.0);
  EXPECT_TRUE(sharded.submit(next.graph, chain_mapping(2, 1), 5).is_ok());
  ASSERT_TRUE(sharded.wait().is_ok());
  EXPECT_EQ(sharded.report(t.value()).outcome, SessionOutcome::kCancelled);
}

TEST(ShardedEngine, InvalidGraphCountsAsFailureNotReject) {
  ShardedEngineOptions opts;
  opts.shards = 1;
  ShardedEngine sharded(opts);
  auto bodyless = mpsoc::TaskGraph("no-bodies");
  mpsoc::Task t;
  t.name = "x";
  (void)bodyless.add_task(t);
  EXPECT_FALSE(sharded.submit(bodyless, chain_mapping(1, 1), 5).is_ok());
  const auto stats = sharded.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ShardedEngine, DestructorWhileRunningCancelsAllShards) {
  const auto t0 = std::chrono::steady_clock::now();
  // Graphs outlive the engine: workers may still be firing when the
  // ShardedEngine destructor starts cancelling.
  auto a = make_synthetic_chain(3, 20000.0);
  auto b = make_synthetic_chain(3, 20000.0);
  {
    ShardedEngineOptions opts;
    opts.shards = 2;
    opts.max_sessions_per_shard = 2;
    opts.engine.workers = 1;
    opts.engine.channel_capacity = 1;
    ShardedEngine sharded(opts);
    ASSERT_TRUE(
        sharded.submit(a.graph, chain_mapping(3, 1), 200'000'000).is_ok());
    ASSERT_TRUE(
        sharded.submit(b.graph, chain_mapping(3, 1), 200'000'000).is_ok());
    ASSERT_TRUE(sharded.start().is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

// Rejection also holds into running shards: with the one slot held by a
// live session, a further submit is refused with a reason.
TEST(ShardedEngine, RejectsWithReasonIntoRunningShards) {
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.max_sessions_per_shard = 1;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);
  ASSERT_TRUE(sharded.start().is_ok());
  auto endless = make_synthetic_chain(2, 20000.0);
  ASSERT_TRUE(
      sharded.submit(endless.graph, chain_mapping(2, 1), 200'000'000).is_ok());
  auto second = make_synthetic_chain(2, 200.0);
  auto t2 = sharded.submit(second.graph, chain_mapping(2, 1), 10);
  EXPECT_FALSE(t2.is_ok()) << "a full front-end must reject";
  EXPECT_EQ(t2.status().code(), common::StatusCode::kResourceExhausted);
  EXPECT_NE(t2.status().message().find("admission reject"), std::string::npos);
  EXPECT_EQ(sharded.stats().rejected, 1u);
  sharded.cancel_all();
  ASSERT_TRUE(sharded.wait().is_ok());
}

// A zero shard count or admission bound is a bad config: start() and
// submit() refuse it with kInvalidArgument (a failure, not an admission
// reject) instead of silently running with 1.
TEST(ShardedEngine, ZeroShardsOrSessionBoundIsInvalidArgument) {
  for (const bool zero_shards : {true, false}) {
    ShardedEngineOptions opts;
    opts.engine.workers = 1;
    if (zero_shards) {
      opts.shards = 0;
    } else {
      opts.max_sessions_per_shard = 0;
    }
    const char* field = zero_shards ? "shards" : "max_sessions_per_shard";
    ShardedEngine sharded(opts);
    auto pipe = make_synthetic_chain(2, 100.0);
    const auto r = sharded.submit(pipe.graph, chain_mapping(2, 1), 5);
    ASSERT_FALSE(r.is_ok()) << field;
    EXPECT_EQ(r.status().code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(field), std::string::npos);
    const auto stats = sharded.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.rejected, 0u);
    const auto started = sharded.start();
    EXPECT_EQ(started.code(), common::StatusCode::kInvalidArgument) << field;
  }
}

// stats() promises a *consistent* snapshot: accepted == completed +
// inflight in every observation, even while worker threads are
// completing sessions and a front-end thread keeps submitting. A racy
// two-read implementation (accepted now, completed a little later)
// fails this within a few iterations.
TEST(ShardedEngine, StatsSnapshotBalancesWhileSessionsChurn) {
  ShardedEngineOptions opts;
  opts.shards = 2;
  opts.max_sessions_per_shard = 4;
  opts.engine.workers = 1;
  ShardedEngine sharded(opts);
  ASSERT_TRUE(sharded.start().is_ok());

  constexpr int kSubmits = 48;
  std::atomic<bool> observing{false};
  std::atomic<bool> done{false};
  std::thread submitter([&] {
    // Start churning only once the observer is in its loop, so a
    // descheduled observer cannot miss the whole run.
    while (!observing.load(std::memory_order_acquire)) std::this_thread::yield();
    // Keep the books moving: short sessions, back-to-back, with rejects
    // mixed in when the shards saturate.
    std::vector<SyntheticPipeline> pipes;
    pipes.reserve(kSubmits);
    for (int i = 0; i < kSubmits; ++i) {
      pipes.push_back(make_synthetic_chain(2, 50.0));
      (void)sharded.submit(pipes.back().graph, chain_mapping(2, 1), 3);
      std::this_thread::yield();
    }
    (void)sharded.wait();
    done.store(true, std::memory_order_release);
  });

  std::uint64_t observations = 0;
  while (!done.load(std::memory_order_acquire)) {
    const auto s = sharded.stats();
    ASSERT_EQ(s.accepted, s.completed + s.inflight)
        << "inconsistent snapshot after " << observations << " observations";
    ASSERT_LE(s.inflight,
              static_cast<std::uint64_t>(opts.shards) *
                  opts.max_sessions_per_shard);
    ASSERT_EQ(s.submitted, s.accepted + s.rejected);
    ++observations;
    observing.store(true, std::memory_order_release);
  }
  submitter.join();
  EXPECT_GT(observations, 0u);

  const auto end = sharded.stats();
  EXPECT_EQ(end.submitted, static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(end.inflight, 0u);
  EXPECT_EQ(end.accepted, end.completed);
}

}  // namespace
}  // namespace mmsoc::runtime
