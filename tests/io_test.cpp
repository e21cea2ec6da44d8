// Async I/O boundary subsystem: IoContext, AsyncSource/AsyncSink
// adapters, RTP/block endpoints, and the two boundary session types.
// Runs in the ThreadSanitizer matrix: the IoContext <-> worker hand-off
// (gate publish, task_waker, buffer mutation) is exactly the kind of
// race that never crashes an ordinary run.
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/engine.h"
#include "runtime/io.h"
#include "runtime/pipelines.h"
#include "runtime/shard.h"

namespace {

using namespace mmsoc;
using namespace mmsoc::runtime;
using common::Result;
using common::Status;
using common::StatusCode;
using mpsoc::Payload;
using mpsoc::TaskFiring;
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

TEST(IoContext, ExecutesJobsThenStopsIdempotently) {
  IoContext io(IoContextOptions{.threads = 2, .queue_capacity = 64});
  EXPECT_EQ(io.thread_count(), 2u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(io.post([&ran] { ran.fetch_add(1); }));
  }
  io.stop();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_GE(io.stats().jobs, 50u);
  EXPECT_FALSE(io.post([] {})) << "post after stop must be rejected";
  io.stop();  // idempotent
}

// Minimal boundary graph: gated source -> collecting sink.
struct Collector {
  std::vector<Payload> got;
};

TEST(AsyncBoundary, SourceDeliversInOrderAndEngineAccountsStalls) {
  constexpr std::uint64_t kUnits = 24;
  IoContext io;
  // A deliberately slow device: every read sleeps 1 ms on the I/O
  // thread, so the pipeline must stall at the gate (and the engine must
  // bill that as io_stall, not compute).
  AsyncSource source(
      io,
      [](std::uint64_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return Result<Payload>(unit_payload(i));
      },
      {}, /*depth=*/2);

  TaskGraph g("gated-source");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());
  source.bind(g, src);
  auto collector = std::make_shared<Collector>();
  g.set_body(snk, [collector](TaskFiring& f) {
    collector->got.push_back(*f.inputs[0]);
  });

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1}, kUnits);
  ASSERT_TRUE(sid.is_ok()) << sid.status().to_text();
  auto waker = engine.task_waker(sid.value(), src);
  ASSERT_TRUE(waker.is_ok()) << waker.status().to_text();
  source.attach(kUnits, std::move(waker.value()));
  ASSERT_TRUE(engine.wait().is_ok());

  const auto& rep = engine.report(sid.value());
  ASSERT_EQ(rep.outcome, SessionOutcome::kCompleted);
  ASSERT_EQ(collector->got.size(), kUnits);
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(collector->got[i], unit_payload(i)) << "unit " << i;
  }
  // The 1 ms device latency dominates the ~free compute, so the source
  // must have been seen gate-closed and the wait must be attributed.
  EXPECT_GT(rep.tasks[src].io_stalls, 0u);
  EXPECT_GT(rep.tasks[src].io_stall_s, 0.0);
  EXPECT_GT(rep.io_stall_s, 0.0);
  EXPECT_GT(rep.tasks[src].mean_io_stall_s(), 0.0);
  const auto stats = source.stats();
  EXPECT_EQ(stats.units, kUnits);
  EXPECT_EQ(stats.underruns, 0u);
  EXPECT_GT(stats.io_busy_s, 0.0);
}

TEST(AsyncBoundary, SinkBackpressuresOrderedWritesAndFlushes) {
  constexpr std::uint64_t kUnits = 16;
  IoContext io;
  std::mutex written_mu;
  std::vector<std::pair<std::uint64_t, Payload>> written;
  AsyncSink sink(
      io,
      [&](std::uint64_t i, const Payload& p) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard lock(written_mu);
        written.emplace_back(i, p);
        return Status::ok();
      },
      {}, /*depth=*/2);

  TaskGraph g("gated-sink");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());
  g.set_body(src, [](TaskFiring& f) { f.outputs[0] = unit_payload(f.iteration); });
  sink.bind(g, snk);

  EngineOptions opts;
  opts.workers = 2;
  Engine engine(opts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto waker = engine.task_waker(sid.value(), snk);
  ASSERT_TRUE(waker.is_ok());
  sink.attach(std::move(waker.value()));
  ASSERT_TRUE(engine.wait().is_ok());
  sink.flush();  // engine drained the graph; drain the device side too

  const auto& rep = engine.report(sid.value());
  ASSERT_EQ(rep.outcome, SessionOutcome::kCompleted);
  std::lock_guard lock(written_mu);
  ASSERT_EQ(written.size(), kUnits);
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(written[i].first, i);
    EXPECT_EQ(written[i].second, unit_payload(i));
  }
  // The fast producer must have found the depth-2 device buffer full.
  EXPECT_GT(rep.tasks[snk].io_stalls, 0u);
  EXPECT_EQ(sink.stats().units, kUnits);
}

TEST(AsyncBoundary, TruncatedStreamUnderrunsInsteadOfWedging) {
  constexpr std::uint64_t kUnits = 12;
  constexpr std::uint64_t kAvailable = 7;
  IoContext io;
  AsyncSource source(io, [](std::uint64_t i) {
    return i < kAvailable
               ? Result<Payload>(unit_payload(i))
               : Result<Payload>(StatusCode::kOutOfRange, "end of stream");
  });
  TaskGraph g("truncated");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 32).is_ok());
  source.bind(g, src);
  std::atomic<std::uint64_t> empties{0};
  g.set_body(snk, [&empties](TaskFiring& f) {
    if (f.inputs[0]->empty()) empties.fetch_add(1);
  });

  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto waker = engine.task_waker(sid.value(), src);
  ASSERT_TRUE(waker.is_ok());
  source.attach(kUnits, std::move(waker.value()));
  ASSERT_TRUE(engine.wait().is_ok());
  EXPECT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(empties.load(), kUnits - kAvailable);
  EXPECT_EQ(source.stats().underruns, kUnits - kAvailable);
}

TEST(AsyncBoundary, StoppedContextFailsOpenInsteadOfWedging) {
  constexpr std::uint64_t kUnits = 6;
  IoContext io;
  io.stop();  // the pathological ordering: context dies before the session
  AsyncSource source(io, [](std::uint64_t i) {
    return Result<Payload>(unit_payload(i));
  });
  std::mutex sink_mu;
  std::uint64_t sunk = 0;
  AsyncSink sink(io, [&](std::uint64_t, const Payload&) {
    std::lock_guard lock(sink_mu);
    ++sunk;
    return Status::ok();
  });
  TaskGraph g("dead-context");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, snk, 8).is_ok());
  source.bind(g, src);
  sink.bind(g, snk);

  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto w1 = engine.task_waker(sid.value(), src);
  auto w2 = engine.task_waker(sid.value(), snk);
  ASSERT_TRUE(w1.is_ok() && w2.is_ok());
  source.attach(kUnits, std::move(w1.value()));
  sink.attach(std::move(w2.value()));
  // The whole point: wait() must return (fail-open), not wedge forever.
  ASSERT_TRUE(engine.wait().is_ok());
  sink.flush();  // must also return
  EXPECT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(source.stats().underruns, kUnits);
  EXPECT_EQ(sink.stats().dropped, kUnits);
  std::lock_guard lock(sink_mu);
  EXPECT_EQ(sunk, 0u);
}

TEST(AsyncBoundary, AdapterDestructionQuiescesInflightIo) {
  // A cancelled session leaves the drain job sleeping inside a slow
  // read; destroying the adapter right after wait() must block until
  // that job retires (it would otherwise lock a destroyed mutex).
  IoContext io;
  std::atomic<bool> read_done{false};
  {
    AsyncSource source(io, [&read_done](std::uint64_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      read_done.store(true);
      return Result<Payload>(unit_payload(i));
    });
    TaskGraph g("cancel-quiesce");
    const TaskId src = g.add_task(task("src", 10));
    const TaskId snk = g.add_task(task("snk", 10));
    ASSERT_TRUE(g.add_edge(src, snk, 8).is_ok());
    source.bind(g, src);
    g.set_body(snk, [](TaskFiring&) {});
    EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
    ASSERT_TRUE(engine.start().is_ok());
    auto sid = engine.submit(g, {0, 0}, 100);
    ASSERT_TRUE(sid.is_ok());
    auto waker = engine.task_waker(sid.value(), src);
    ASSERT_TRUE(waker.is_ok());
    source.attach(100, std::move(waker.value()));
    engine.cancel(sid.value());
    ASSERT_TRUE(engine.wait().is_ok());
    // source goes out of scope here, likely with the read mid-sleep
  }
  EXPECT_TRUE(read_done.load())
      << "destructor returned before the in-flight read retired";
}

TEST(PayloadPool, AcquireReleaseReusesStorageWithinBound) {
  PayloadPool pool(2);
  Payload a(100, 0x11);
  const std::uint8_t* storage = a.data();
  pool.release(std::move(a));
  Payload b = pool.acquire();
  EXPECT_EQ(b.data(), storage) << "pooled storage must be reused";
  EXPECT_TRUE(b.empty()) << "pooled buffers are handed back cleared";
  EXPECT_GE(b.capacity(), 100u);
  // Bound: a third banked buffer is dropped, not hoarded.
  pool.release(Payload(8, 1));
  pool.release(Payload(8, 2));
  pool.release(Payload(8, 3));
  EXPECT_EQ(pool.size(), 2u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.released, 4u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.reused, 1u);
  // Oversized buffers are freed, never banked at peak capacity.
  Payload huge;
  huge.reserve(PayloadPool::kMaxBankedCapacity + 1);
  huge.push_back(1);
  PayloadPool fresh(4);
  fresh.release(std::move(huge));
  EXPECT_EQ(fresh.size(), 0u);
  EXPECT_EQ(fresh.stats().dropped, 1u);
}

TEST(AsyncBoundary, SharedPoolRecyclesUnitBuffersAcrossSourceAndSink) {
  // source -> relay -> sink with one shared pool: the source retires
  // every unit buffer into the pool, the sink draws its per-unit banked
  // copies from it. After a short warm-up the boundary stops allocating:
  // pool reuse must dominate and the written stream stay exact.
  constexpr std::uint64_t kUnits = 32;
  IoContext io;
  auto pool = std::make_shared<PayloadPool>(16);
  AsyncSource source(
      io, [](std::uint64_t i) { return Result<Payload>(unit_payload(i)); },
      {}, /*depth=*/4, pool);
  std::mutex written_mu;
  std::vector<Payload> written;
  AsyncSink sink(
      io,
      [&](std::uint64_t, const Payload& p) {
        std::lock_guard lock(written_mu);
        written.push_back(p);
        return Status::ok();
      },
      {}, /*depth=*/4, pool);

  TaskGraph g("pooled-boundary");
  const TaskId src = g.add_task(task("src", 10));
  const TaskId mid = g.add_task(task("relay", 10));
  const TaskId snk = g.add_task(task("snk", 10));
  ASSERT_TRUE(g.add_edge(src, mid, 32).is_ok());
  ASSERT_TRUE(g.add_edge(mid, snk, 32).is_ok());
  source.bind(g, src);
  g.set_body(mid, [](TaskFiring& f) {
    f.store(0, f.inputs[0]->data(), f.inputs[0]->size());
  });
  sink.bind(g, snk);

  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = engine.submit(g, {0, 1, 0}, kUnits);
  ASSERT_TRUE(sid.is_ok());
  auto w1 = engine.task_waker(sid.value(), src);
  auto w2 = engine.task_waker(sid.value(), snk);
  ASSERT_TRUE(w1.is_ok() && w2.is_ok());
  source.attach(kUnits, std::move(w1.value()));
  sink.attach(std::move(w2.value()));
  ASSERT_TRUE(engine.wait().is_ok());
  sink.flush();

  ASSERT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
  std::lock_guard lock(written_mu);
  ASSERT_EQ(written.size(), kUnits);
  for (std::uint64_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(written[i], unit_payload(i)) << "unit " << i;
  }
  const auto stats = pool.get()->stats();
  EXPECT_EQ(stats.released, 2 * kUnits)  // source retires + sink returns
      << "every unit must pass through the pool on both ends";
  // The sink's kUnits banked copies are the only acquires; once the
  // source seeds the pool they must be served from it.
  EXPECT_EQ(stats.acquired, kUnits);
  EXPECT_GT(stats.reused, kUnits / 2)
      << "steady state must reuse, not allocate";
}

TEST(RtpIngress, TailGapFlushesReceivedPacketsInsteadOfDroppingThem) {
  // Units 0..5; packet 3 lost; 4 and 5 arrive, then the feed ends. With
  // playout_delay 3 the gap never ages, so without the flush path units
  // 4 and 5 would be replaced by stale repeats of unit 2.
  net::RtpSender sender;
  std::vector<std::vector<std::uint8_t>> packets;
  for (std::uint64_t i = 0; i < 6; ++i) {
    packets.push_back(sender.packetize(unit_payload(i, 16),
                                       static_cast<std::uint32_t>(i) * 100));
  }
  packets.erase(packets.begin() + 3);
  RtpIngress ingress(make_timed_feed(std::move(packets), 1000.0),
                     RtpIngressOptions{.playout_delay_units = 3});
  std::vector<Payload> played;
  for (std::uint64_t i = 0; i < 6; ++i) {
    auto unit = ingress.try_read(i);
    ASSERT_TRUE(unit.is_ok());
    played.push_back(std::move(unit.value()));
  }
  EXPECT_EQ(played[2], unit_payload(2, 16));
  EXPECT_EQ(played[3], unit_payload(2, 16)) << "lost unit concealed as repeat";
  EXPECT_EQ(played[4], unit_payload(4, 16)) << "tail packet must still play";
  EXPECT_EQ(played[5], unit_payload(5, 16)) << "tail packet must still play";
  EXPECT_EQ(ingress.concealed(), 1u);
}

TEST(TaskWaker, LifecycleErrorsAndSpuriousCallsAreSafe) {
  auto pipe = make_synthetic_chain(2, 100.0);
  std::atomic<bool> gate{false};  // holds the session live until opened
  pipe.graph.set_gate(0, [&gate] { return gate.load(); });
  std::atomic<bool> closed{false};
  EngineOptions eopts;
  eopts.workers = 1;
  eopts.on_session_complete = [&closed](std::size_t) { closed.store(true); };
  Engine engine(eopts);
  // Pre-start sessions are not wired yet: no waker to hand out.
  auto sid = engine.submit(pipe.graph, {0, 0}, 4);
  ASSERT_TRUE(sid.is_ok());
  EXPECT_FALSE(engine.task_waker(sid.value(), 0).is_ok());
  ASSERT_TRUE(engine.start().is_ok());
  EXPECT_FALSE(engine.task_waker(99, 0).is_ok());
  EXPECT_FALSE(engine.task_waker(sid.value(), 99).is_ok());
  auto waker = engine.task_waker(sid.value(), 0);
  ASSERT_TRUE(waker.is_ok());
  waker.value()();  // spurious wake while running: harmless
  gate.store(true);
  waker.value()();
  while (!closed.load()) std::this_thread::yield();
  // The session closed (its task state is freed) while the engine keeps
  // running: the waker must be a no-op, and so is one asked for now.
  waker.value()();
  auto late = engine.task_waker(sid.value(), 0);
  ASSERT_TRUE(late.is_ok());
  late.value()();
  EXPECT_FALSE(engine.task_waker(sid.value(), 2).is_ok()) << "no such task";
  ASSERT_TRUE(engine.wait().is_ok());
  waker.value()();  // after drain: harmless
}

// ---------------------------------------------------------------------------
// Streaming session (RTP in -> decode -> RTP out)
// ---------------------------------------------------------------------------

StreamingSessionConfig small_stream(std::uint64_t frames) {
  StreamingSessionConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.frames = frames;
  cfg.seed = 7;
  return cfg;
}

struct StreamRun {
  std::uint32_t luma_crc = 0;
  std::uint64_t luma_bytes = 0;
  std::uint64_t decode_conceals = 0;
  std::uint64_t concealed = 0;
  std::uint64_t packets_out = 0;
  SessionOutcome outcome = SessionOutcome::kPending;
  double io_stall_s = 0.0;
};

StreamRun run_stream(const StreamingSessionConfig& cfg, std::size_t workers) {
  IoContext io;
  StreamingSession session = make_streaming_session(io, cfg);
  EngineOptions eopts;
  eopts.workers = workers;
  Engine engine(eopts);
  EXPECT_TRUE(engine.start().is_ok());
  auto sid = session.submit_to(
      engine, round_robin_mapping(session.graph, workers));
  EXPECT_TRUE(sid.is_ok()) << sid.status().to_text();
  EXPECT_TRUE(engine.wait().is_ok());
  session.finish();
  StreamRun r;
  r.outcome = engine.report(sid.value()).outcome;
  r.io_stall_s = engine.report(sid.value()).io_stall_s;
  r.luma_crc = session.state->luma_crc;
  r.luma_bytes = session.state->luma_bytes;
  r.decode_conceals = session.state->decode_conceals;
  r.concealed = session.ingress->concealed();
  r.packets_out = session.egress->packets_sent();
  EXPECT_EQ(session.state->frames_decoded, cfg.frames);
  return r;
}

TEST(StreamingSession, CleanStreamBitIdenticalAcrossWorkerCounts) {
  const auto cfg = small_stream(16);
  const StreamRun one = run_stream(cfg, 1);
  const StreamRun four = run_stream(cfg, 4);
  ASSERT_EQ(one.outcome, SessionOutcome::kCompleted);
  ASSERT_EQ(four.outcome, SessionOutcome::kCompleted);
  EXPECT_EQ(one.concealed, 0u);
  EXPECT_EQ(one.luma_crc, four.luma_crc)
      << "streamed decode must not depend on worker count";
  EXPECT_EQ(one.packets_out, cfg.frames);
  EXPECT_EQ(four.packets_out, cfg.frames);
}

TEST(StreamingSession, LossAndReorderConcealedDeterministically) {
  auto cfg = small_stream(30);
  cfg.loss_probability = 0.15;
  cfg.reorder_span = 2;
  cfg.playout_delay_units = 3;
  const StreamRun a = run_stream(cfg, 2);
  const StreamRun b = run_stream(cfg, 3);
  ASSERT_EQ(a.outcome, SessionOutcome::kCompleted);
  ASSERT_EQ(b.outcome, SessionOutcome::kCompleted);
  // The drop policy delivers exactly `frames` units: losses become
  // concealed repeats, never missing iterations.
  EXPECT_GT(a.concealed, 0u) << "15% loss must conceal something";
  EXPECT_EQ(a.packets_out, cfg.frames);
  // Same seed, same shaped feed -> bit-identical displayed sequence,
  // regardless of worker count.
  EXPECT_EQ(a.luma_crc, b.luma_crc);
  EXPECT_EQ(a.concealed, b.concealed);
  // And the lossy sequence must differ from the clean one.
  StreamingSessionConfig clean = small_stream(30);
  EXPECT_NE(a.luma_crc, run_stream(clean, 2).luma_crc);
}

// Destroying a session while its source is mid-read (real-time pacing
// sleeps on the I/O thread) must quiesce the adapters before the
// endpoints they call are destroyed. The sanitizer legs catch a
// violation as a use-after-free.
TEST(StreamingSession, TeardownMidReadQuiescesAdaptersBeforeEndpoints) {
  IoContext io;
  EngineOptions eopts;
  eopts.workers = 1;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  {
    auto cfg = small_stream(30);
    cfg.time_scale = 1.0;  // each read waits out a ~33 ms arrival gap
    StreamingSession session = make_streaming_session(io, cfg);
    auto sid = session.submit_to(engine, round_robin_mapping(session.graph, 1));
    ASSERT_TRUE(sid.is_ok());
    engine.cancel(sid.value());
    ASSERT_TRUE(engine.wait().is_ok());
  }  // the prefetching read is still sleeping inside the ingress here
}

// Byte-exact golden: the default session with 10% loss and reorder span
// 2 displays the same sequence at every worker count.
TEST(StreamingSession, LossyDefaultMatchesGoldenAtEveryWorkerCount) {
  StreamingSessionConfig cfg;
  cfg.loss_probability = 0.10;
  cfg.reorder_span = 2;
  for (const std::size_t workers : {1, 2, 4}) {
    const StreamRun r = run_stream(cfg, workers);
    ASSERT_EQ(r.outcome, SessionOutcome::kCompleted) << workers << " workers";
    EXPECT_EQ(r.luma_crc, 0x10ef1bf0u) << workers << " workers";
    EXPECT_EQ(r.luma_bytes, 98304u) << workers << " workers";
    EXPECT_EQ(r.decode_conceals, 14u) << workers << " workers";
    EXPECT_EQ(r.concealed, 7u) << workers << " workers";
    EXPECT_EQ(r.packets_out, 24u) << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// File transcode session (block read -> decode -> encode -> block write)
// ---------------------------------------------------------------------------

TranscodeSessionConfig small_transcode(std::uint64_t frames) {
  TranscodeSessionConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.frames = frames;
  cfg.seed = 11;
  return cfg;
}

TEST(TranscodeSession, AsyncMatchesInlineBitstreamExactly) {
  auto run_one = [](bool async) {
    auto cfg = small_transcode(10);
    cfg.async_boundaries = async;
    IoContext io;
    auto made = make_file_transcode_session(io, cfg);
    EXPECT_TRUE(made.is_ok()) << made.status().to_text();
    FileTranscodeSession session = std::move(made.value());
    EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
    EXPECT_TRUE(engine.start().is_ok());
    auto sid = session.submit_to(engine,
                                 round_robin_mapping(session.graph, 2));
    EXPECT_TRUE(sid.is_ok()) << sid.status().to_text();
    EXPECT_TRUE(engine.wait().is_ok());
    session.finish();
    EXPECT_EQ(engine.report(sid.value()).outcome, SessionOutcome::kCompleted);
    EXPECT_FALSE(session.writer_endpoint->error_summary().any());
    // The re-encoded stream really landed on the FAT volume.
    auto out = session.volume->read_file(session.out_path);
    EXPECT_TRUE(out.is_ok());
    EXPECT_EQ(out.value().size(), session.state->bytes_out);
    return std::pair(session.state->out_crc, session.state->bytes_out);
  };
  const auto async = run_one(true);
  const auto inline_ = run_one(false);
  EXPECT_GT(async.second, 0u);
  EXPECT_EQ(async.first, inline_.first)
      << "async boundaries must not change the transcoded bitstream";
  EXPECT_EQ(async.second, inline_.second);
}

TEST(TranscodeSession, SlowDeviceShowsUpAsIoStallNotCompute) {
  auto cfg = small_transcode(8);
  cfg.time_scale = 1.0;  // charge the modeled seek/transfer time for real
  IoContext io;
  auto made = make_file_transcode_session(io, cfg);
  ASSERT_TRUE(made.is_ok());
  FileTranscodeSession session = std::move(made.value());
  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto sid = session.submit_to(engine, round_robin_mapping(session.graph, 2));
  ASSERT_TRUE(sid.is_ok());
  ASSERT_TRUE(engine.wait().is_ok());
  session.finish();
  const auto& rep = engine.report(sid.value());
  ASSERT_EQ(rep.outcome, SessionOutcome::kCompleted);
  EXPECT_GT(session.reader_endpoint->modeled_io_us(), 0.0);
  EXPECT_GT(session.writer_endpoint->modeled_io_us(), 0.0);
  // The read boundary waits on the disk; that time must be in io_stall.
  EXPECT_GT(rep.io_stall_s, 0.0);
  EXPECT_GT(rep.tasks[session.source_task].io_stalls, 0u);
}

struct TranscodeRun {
  SessionOutcome outcome = SessionOutcome::kPending;
  Status status;
  std::uint64_t failed_unit = 0;
  std::uint64_t io_errors = 0;
  std::uint32_t out_crc = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_on_disk = 0;
};

/// Build and run one transcode session; `prepare` may alter its volume
/// before submission. The engine outlives the session (declared first).
TranscodeRun run_transcode(
    const TranscodeSessionConfig& cfg, std::size_t workers,
    const std::function<void(FileTranscodeSession&)>& prepare = {}) {
  IoContext io;
  EngineOptions eopts;
  eopts.workers = workers;
  Engine engine(eopts);
  EXPECT_TRUE(engine.start().is_ok());
  auto made = make_file_transcode_session(io, cfg);
  if (!made.is_ok()) {
    ADD_FAILURE() << made.status().to_text();
    return {};
  }
  FileTranscodeSession session = std::move(made.value());
  if (prepare) prepare(session);
  auto sid = session.submit_to(engine,
                               round_robin_mapping(session.graph, workers));
  EXPECT_TRUE(sid.is_ok()) << sid.status().to_text();
  EXPECT_TRUE(engine.wait().is_ok());
  session.finish();
  const auto& rep = engine.report(sid.value());
  auto out = session.volume->read_file(session.out_path);
  return TranscodeRun{rep.outcome,
                      rep.status,
                      rep.failed_unit,
                      rep.io_errors.errors,
                      session.state->out_crc,
                      session.state->bytes_out,
                      out.is_ok() ? out.value().size() : 0};
}

// Byte-exact golden for the default transcode at every worker count.
TEST(TranscodeSession, DefaultMatchesGoldenAtEveryWorkerCount) {
  for (const std::size_t workers : {1, 2, 4}) {
    const TranscodeRun r = run_transcode(TranscodeSessionConfig{}, workers);
    ASSERT_EQ(r.outcome, SessionOutcome::kCompleted) << workers << " workers";
    EXPECT_EQ(r.out_crc, 0xd9d2cb09u) << workers << " workers";
    EXPECT_EQ(r.bytes_out, 5585u) << workers << " workers";
    EXPECT_EQ(r.bytes_on_disk, 5585u) << workers << " workers";
  }
}

// A transcode whose input vanished must fail at unit 0 naming the read,
// not complete with every unit concealed.
TEST(TranscodeSession, MissingInputFailsInsteadOfConcealingEveryUnit) {
  const TranscodeRun r =
      run_transcode(small_transcode(10), 2, [](FileTranscodeSession& s) {
        ASSERT_TRUE(s.volume->remove("/in.bit").is_ok());
      });
  EXPECT_EQ(r.outcome, SessionOutcome::kFailed);
  EXPECT_EQ(r.failed_unit, 0u);
  EXPECT_NE(r.status.message().find("device read"), std::string::npos)
      << r.status.to_text();
}

// A transcode onto a full volume must fail naming the write, not
// complete with nothing on disk.
TEST(TranscodeSession, FullVolumeFailsInsteadOfReportingEmptySuccess) {
  const TranscodeRun r =
      run_transcode(small_transcode(10), 2, [](FileTranscodeSession& s) {
        const std::size_t fill =
            static_cast<std::size_t>(s.volume->free_blocks()) *
            s.device->block_size();
        ASSERT_TRUE(s.volume
                        ->write_file("/filler",
                                     std::vector<std::uint8_t>(fill, 0x5a))
                        .is_ok());
      });
  EXPECT_EQ(r.outcome, SessionOutcome::kFailed);
  EXPECT_EQ(r.failed_unit, 0u);
  EXPECT_NE(r.status.message().find("device write"), std::string::npos)
      << r.status.to_text();
  EXPECT_EQ(r.bytes_on_disk, 0u);
}

// The last unit's write fails on a slow disk, typically after the
// session closed (the sink firing only queued it): the failure must
// still fail the session.
TEST(TranscodeSession, LastUnitWriteFailureFailsTheSession) {
  for (const std::size_t workers : {1, 2}) {
    FaultInjector injector(/*seed=*/1);
    auto cfg = small_transcode(10);
    cfg.time_scale = 1.0;
    cfg.fault = &injector;
    cfg.write_faults.fail_at_unit = 9;
    const TranscodeRun r = run_transcode(cfg, workers);
    EXPECT_EQ(r.outcome, SessionOutcome::kFailed) << workers << " workers";
    EXPECT_EQ(r.failed_unit, 9u) << workers << " workers";
    EXPECT_GE(r.io_errors, 1u) << workers << " workers";
  }
}

// The inline reference calls the same endpoint functions: a device error
// stops the run instead of feeding the decoder an empty unit.
TEST(TranscodeSession, InlineReferenceStopsTheRunOnADeviceError) {
  auto cfg = small_transcode(10);
  cfg.async_boundaries = false;
  IoContext io;
  EngineOptions eopts;
  eopts.workers = 2;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());
  auto made = make_file_transcode_session(io, cfg);
  ASSERT_TRUE(made.is_ok());
  FileTranscodeSession session = std::move(made.value());
  ASSERT_TRUE(session.volume->remove("/in.bit").is_ok());
  auto sid = session.submit_to(engine, round_robin_mapping(session.graph, 2));
  ASSERT_TRUE(sid.is_ok());
  const Status waited = engine.wait();
  EXPECT_FALSE(waited.is_ok());
  EXPECT_NE(waited.message().find("device read"), std::string::npos)
      << waited.to_text();
  EXPECT_EQ(session.state->decode_conceals, 0u);
}

// ---------------------------------------------------------------------------
// TSan stress: shared IoContext, many sessions, cancel + dynamic submit
// ---------------------------------------------------------------------------

TEST(IoStress, SharedContextManySessionsWithCancelAndDynamicSubmit) {
  IoContext io(IoContextOptions{.threads = 2});
  EngineOptions eopts;
  eopts.workers = 3;
  Engine engine(eopts);
  ASSERT_TRUE(engine.start().is_ok());

  constexpr std::size_t kInitial = 4;
  std::vector<FileTranscodeSession> sessions;
  sessions.reserve(kInitial + 2);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < kInitial; ++i) {
    auto cfg = small_transcode(8);
    cfg.seed = 100 + i;
    cfg.io_depth = 2;
    auto made = make_file_transcode_session(io, cfg);
    ASSERT_TRUE(made.is_ok());
    sessions.push_back(std::move(made.value()));
  }
  for (auto& session : sessions) {
    auto sid = session.submit_to(engine, round_robin_mapping(session.graph, 3));
    ASSERT_TRUE(sid.is_ok());
    ids.push_back(sid.value());
  }
  // Concurrently: cancel two sessions mid-flight and admit two more.
  std::thread chaos([&] {
    engine.cancel(ids[1]);
    for (std::size_t i = 0; i < 2; ++i) {
      auto cfg = small_transcode(6);
      cfg.seed = 200 + i;
      auto made = make_file_transcode_session(io, cfg);
      ASSERT_TRUE(made.is_ok());
      sessions.push_back(std::move(made.value()));
      auto sid = sessions.back().submit_to(
          engine, round_robin_mapping(sessions.back().graph, 3));
      ASSERT_TRUE(sid.is_ok());
      ids.push_back(sid.value());
    }
    engine.cancel(ids[2]);
  });
  chaos.join();
  ASSERT_TRUE(engine.wait().is_ok());
  for (auto& session : sessions) session.finish();
  io.stop();

  std::size_t completed = 0;
  for (const std::size_t id : ids) {
    const auto& rep = engine.report(id);
    EXPECT_TRUE(rep.outcome == SessionOutcome::kCompleted ||
                rep.outcome == SessionOutcome::kCancelled)
        << to_string(rep.outcome);
    if (rep.outcome == SessionOutcome::kCompleted) ++completed;
  }
  EXPECT_GE(completed, ids.size() - 2);
}

}  // namespace
