// Asynchronous I/O boundary subsystem: bridge external byte/packet
// streams into Engine sessions without blocking workers.
//
// The compute runtime (engine.h) executes task graphs on a worker pool;
// until now its sources and sinks computed *inline*, so an I/O-bound
// stage (a device read, a network receive) stalled a PE for the full
// device latency. This subsystem moves that latency off the pool:
//
//  * IoContext — a small pool of dedicated I/O threads draining a job
//    queue. Device operations (and their modeled latencies — BlockDevice
//    seek/transfer time, RTP interarrival pacing) run *here*, never on an
//    engine worker.
//  * AsyncSource / AsyncSink — task adapters that turn a graph node into
//    an asynchronous boundary (their shared state and error path live in
//    BoundaryAdapter). The adapter installs a TaskBody that only
//    moves payloads between the graph's channels and a small completion
//    buffer, plus a TaskGate so the engine parks the task while the
//    buffer is empty (source) or full (sink). The I/O thread refills /
//    drains the buffer and wakes the task's current owner through
//    Engine::task_waker — no spin, no inline blocking; the engine
//    attributes the wait as io_stall_s instead of compute time.
//  * Concrete endpoints — RtpIngress/RtpEgress over net::RtpReceiver /
//    net::RtpSender (jitter-buffer reordering and loss concealment from
//    RtpReceiver's playout logic), and BlockFileSource/BlockFileSink over
//    fs::FatVolume + fs::BlockDevice with its TimingModel converted into
//    real (sleep) latency on the I/O thread.
//
// One endpoint convention: every endpoint exposes exactly one fallible
// read or write (TryReadFn / TryWriteFn, status tiers in fault.h), and
// both adapters take only that. End of stream is kOutOfRange; a device
// error is retried or fails the session — it is never turned into a
// silently empty unit.
//
// Hand-off protocol (IoContext thread <-> engine worker), per adapter:
// all mutable state sits behind the adapter mutex except the gate word,
// which is a separate atomic so gates stay wait-free for workers and
// thieves. At most one I/O job per adapter is in flight at a time (the
// job loops until the buffer is full/empty, then retires), so each
// endpoint sees strictly ordered unit indices and the completion buffer
// has exactly one producer and one consumer at any instant. Wakeups
// follow the engine's eventcount protocol: the I/O thread publishes the
// buffer state *before* calling the waker, and a worker re-checks the
// gate after loading its version word, so a completion can never be
// missed.
//
// Drop policy (RTP): interior losses are concealed by RtpReceiver
// (repeat last unit once the gap ages past the jitter buffer); losses at
// the stream tail — where no future packets can age the gap — are
// concealed by RtpIngress itself the same way. A session therefore
// always receives exactly its `iterations` units; `concealed()` reports
// how many were repeats, and a stream with *nothing* received delivers
// empty payloads (counted as underruns) rather than wedging the graph.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "fs/fat.h"
#include "mpsoc/taskgraph.h"
#include "net/rtp.h"
#include "runtime/fault.h"
#include "runtime/payload_pool.h"
#include "runtime/queue.h"
#include "runtime/telemetry.h"

namespace mmsoc::runtime {

// ---------------------------------------------------------------------------
// IoContext
// ---------------------------------------------------------------------------

struct IoContextOptions {
  /// Dedicated I/O threads. One thread serializes every device it serves
  /// (the safe default for endpoints sharing a FatVolume); more threads
  /// let independent devices overlap.
  std::size_t threads = 1;
  /// Job-queue bound. Each adapter keeps at most one job in flight, so
  /// this only needs to exceed the number of live boundary adapters.
  std::size_t queue_capacity = 1024;
  /// Telemetry sink (borrowed, must outlive the context; typically the
  /// same sink the engine uses). Each I/O thread registers a
  /// "<prefix>.thread<N>" track and emits one kIoJob slice per job,
  /// reusing the clock reads the busy_s accounting already pays. nullptr
  /// disables instrumentation.
  Telemetry* telemetry = nullptr;
  std::string telemetry_prefix = "io";
};

/// Completion-queue I/O execution context: dedicated threads running
/// boundary jobs posted by the adapters below. Jobs are plain callables;
/// the adapters encode the per-adapter ordering discipline.
class IoContext {
 public:
  explicit IoContext(IoContextOptions options = {});
  /// stop() + join.
  ~IoContext();

  IoContext(const IoContext&) = delete;
  IoContext& operator=(const IoContext&) = delete;

  /// Enqueue a job; false once stopped. May block briefly when the queue
  /// is at capacity (never called from I/O threads themselves — adapters
  /// chain work inside a running job instead of re-posting).
  bool post(std::function<void()> job);

  /// Enqueue a job after `delay` (retry backoff timers). A dedicated
  /// timer thread holds delayed jobs in a deadline heap and feeds them
  /// into the ordinary job queue when due — an I/O thread is never
  /// parked on a backoff. False once stopped. On stop() every pending
  /// delayed job is flushed into the queue *immediately* (delays are
  /// cut short, never skipped), preserving the adapter invariant that a
  /// scheduled job always runs — destructors that quiesce on an
  /// in-flight job terminate even mid-backoff.
  bool post_after(std::chrono::nanoseconds delay, std::function<void()> job);

  /// Close the queue, drain the backlog (delayed jobs included — see
  /// post_after), join the threads. Idempotent. Stopping while sessions
  /// are still live is safe but lossy: boundary adapters *fail closed* —
  /// they surface the stop as a boundary failure (see
  /// BoundaryAdapter::set_failure_handler) and keep the engine drainable by
  /// delivering empty payloads / dropping units, all of it counted.
  void stop();

  struct Stats {
    std::uint64_t jobs = 0;
    std::uint64_t delayed_jobs = 0;  ///< jobs that went through post_after
    double busy_s = 0.0;  ///< wall time inside jobs (includes modeled latency)
  };
  [[nodiscard]] Stats stats() const noexcept;
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return threads_.size();
  }

  /// Boundary-retry instrumentation hooks (no-ops when the context was
  /// built without a telemetry sink): one "<prefix>.retries" count plus
  /// a "<prefix>.retry_backoff_ns" histogram sample per scheduled retry,
  /// one "<prefix>.failures" count per boundary failure.
  void note_retry(std::uint64_t backoff_ns);
  void note_failure();

 private:
  void timer_main();

  MpmcQueue<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> delayed_jobs_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<bool> stopped_{false};
  std::once_flag stop_once_;
  // Delayed-job timer (post_after): deadline-ordered heap drained by one
  // timer thread into queue_.
  struct DelayedJob {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal deadlines
    std::function<void()> job;
  };
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::vector<DelayedJob> timer_heap_;
  std::uint64_t timer_seq_ = 0;
  bool timer_stop_ = false;
  std::thread timer_thread_;
  // Retry/failure metric handles (null without a telemetry sink).
  Counter* m_retries_ = nullptr;
  Counter* m_failures_ = nullptr;
  Histogram* h_retry_backoff_ns_ = nullptr;
};

// ---------------------------------------------------------------------------
// Boundary task adapters
// ---------------------------------------------------------------------------

/// Counters every boundary adapter keeps (readable any time).
struct BoundaryStats {
  std::uint64_t units = 0;      ///< payloads through the boundary
  std::uint64_t bytes = 0;      ///< payload bytes through the boundary
  std::uint64_t underruns = 0;  ///< source: reader ended early / context stopped
  std::uint64_t dropped = 0;    ///< sink: units discarded (context stopped)
  std::uint64_t errors = 0;     ///< device errors observed (incl. retried ones)
  std::uint64_t retries = 0;    ///< backoff retries scheduled against them
  std::uint64_t recovered = 0;  ///< units that succeeded after >= 1 retry
  double io_busy_s = 0.0;       ///< time inside the read/write fn (I/O thread)
  std::size_t max_buffered = 0; ///< peak completion-buffer occupancy
};

/// Failure notification from a boundary adapter: the unit that could not
/// be produced/persisted and why (retry budget exhausted, permanent
/// device error, or IoContext stopped mid-session). Invoked at most once
/// per adapter, off the adapter lock, from an I/O thread, a timer-fed
/// job, or the caller of attach(); typically wired to
/// Engine::fail_session so the session retires as kUnavailable instead
/// of silently absorbing empty payloads.
using BoundaryFailureFn =
    std::function<void(std::uint64_t unit, const common::Status& status)>;
/// Per-error observer (every device error, including ones that will be
/// retried); wired to Engine::record_io_error for the SessionReport
/// error summary. Same invocation context as BoundaryFailureFn.
using BoundaryErrorFn = std::function<void(
    std::uint64_t unit, const common::Status& status, bool will_retry)>;

/// What AsyncSource and AsyncSink share: the adapter mutex, the one
/// in-flight I/O job, the payload pool, the failure/error plumbing, and
/// the single implementation of the TryReadFn/TryWriteFn status
/// escalation (fault.h): kUnavailable retries on the IoContext timer
/// under the RetryPolicy, exhaustion and every other error fail the
/// boundary. The adapters add only what differs —
/// the source's prefetch buffer, the sink's banked copies and the unit
/// its writer holds.
class BoundaryAdapter {
 public:
  BoundaryAdapter(const BoundaryAdapter&) = delete;
  BoundaryAdapter& operator=(const BoundaryAdapter&) = delete;

  /// Arm the adapter after the session is submitted into a *running*
  /// engine: store the engine waker (from Engine::task_waker), start the
  /// device side, deliver a failure that predates the wiring, and wake
  /// the task once so a unit that completed during wiring is noticed.
  void attach(std::function<void()> waker);

  /// Install the failure handler / per-error observer. Must be called
  /// before attach() — the handlers may fire from attach() itself (e.g.
  /// a context that stopped before the session started).
  void set_failure_handler(BoundaryFailureFn on_fail);
  void set_error_observer(BoundaryErrorFn on_error);

  /// Terminal boundary failure, if any (ok = none). With a failure
  /// handler installed the same information was already pushed to it.
  [[nodiscard]] common::Status failure() const;
  [[nodiscard]] std::uint64_t failed_unit() const;

  [[nodiscard]] BoundaryStats stats() const;

 protected:
  /// Without a `pool` the adapter creates its own.
  BoundaryAdapter(IoContext& io, RetryPolicy retry, std::size_t depth,
                  std::shared_ptr<PayloadPool> pool);
  ~BoundaryAdapter() = default;

  /// A failure recorded while no handler could run (context stopped
  /// before attach), claimed under the lock and delivered off it.
  struct FailureNotice {
    BoundaryFailureFn on_fail;
    std::uint64_t unit = 0;
    common::Status status;
    void deliver() const {
      if (on_fail) on_fail(unit, status);
    }
  };

  /// I/O thread: move units until the buffer is full (source) or empty
  /// (sink), then retire.
  virtual void drain() = 0;
  /// Under mu_: post drain() if the adapter has device work to do.
  virtual void pump_locked() = 0;
  /// Under mu_: discard (and count) every unit the adapter holds, as the
  /// boundary fails.
  virtual void drop_held_locked() {}

  /// Block until no I/O job is in flight, so none can touch a destroyed
  /// adapter. Every derived destructor calls this first.
  void quiesce();
  /// Under mu_: post drain() for `unit`; `op` names the operation
  /// ("reading"/"writing") in the failure recorded when the context has
  /// stopped — the gate then opens so the engine can still drain.
  void post_drain_locked(std::uint64_t unit, const char* op);
  /// Under mu_: the drain job ends; wake ~adapter / flush() waiters.
  void retire_locked();
  /// Under mu_: claim the retry a backoff timer delivered, if armed.
  bool take_retry_locked(std::uint64_t& unit, std::uint32_t& attempt);
  /// Under mu_: claim a failure no handler has seen yet.
  FailureNotice claim_failure_locked();
  /// Drain job, off the lock: the device op on `unit` (try `attempt`)
  /// failed with `status` after `busy_s` — schedule a retry or fail the
  /// boundary. The drain job must return right after.
  void escalate(std::uint64_t unit, std::uint32_t attempt,
                const common::Status& status, double busy_s);
  /// Terminal failure: record it (first wins), run the handler *before*
  /// the gate opens — so a session never drains to completion ahead of
  /// the failure that ends it — then open the gate (fail closed but
  /// drainable) and wake the task.
  void fail(std::unique_lock<std::mutex> lock, std::uint64_t unit,
            common::Status status);

  IoContext* io_;
  RetryPolicy retry_;
  std::size_t depth_;
  std::shared_ptr<PayloadPool> pool_;
  mutable std::mutex mu_;
  std::condition_variable idle_;  ///< signalled whenever the drain job retires
  bool inflight_ = false;
  std::function<void()> waker_;
  BoundaryStats stats_;
  // Retry state: while a backoff timer is pending, inflight_ stays true
  // (the retry *is* the in-flight job) so destruction quiesces on it.
  bool retry_armed_ = false;
  std::uint64_t retry_unit_ = 0;
  std::uint32_t retry_attempt_ = 0;
  /// Terminal failure record (first failure wins).
  common::Status failed_status_;
  std::uint64_t failed_unit_ = 0;
  /// Failure detected with no handler invocation possible yet (context
  /// stopped before attach); the body or attach() delivers it.
  bool fail_notify_pending_ = false;
  BoundaryFailureFn on_fail_;
  BoundaryErrorFn on_error_;
  /// Boundary-failed flag: the IoContext stopped under us, the retry
  /// budget is exhausted, or the device failed permanently. The gate
  /// opens unconditionally so the engine can always drain (the source
  /// delivers empty payloads counted as underruns, the sink drops units
  /// counted as dropped) — but the failure is surfaced through the
  /// failure handler, never silently absorbed.
  std::atomic<bool> io_failed_{false};
};

/// Boundary *source*: an external reader feeding a graph source task.
/// The reader runs on the I/O context (blocking/sleeping there is the
/// point), prefetching up to `depth` units ahead of the pipeline; the
/// task body pops one unit per firing and copies it to every out edge
/// (the engine's recycled channel buffers), retiring the endpoint's
/// buffer into the pool. The task's gate is "a prefetched unit is
/// buffered".
class AsyncSource final : public BoundaryAdapter {
 public:
  /// `read` follows the TryReadFn status convention (fault.h): kOutOfRange
  /// delivers an empty payload counted as an underrun; kUnavailable is
  /// retried under `retry` on the IoContext timer (post_after), so no
  /// worker or I/O thread sleeps on a backoff and its wall time counts
  /// against the session deadline. Pair `pool` with an AsyncSink so the
  /// sink's per-unit copies reuse the buffers this source retires (zero
  /// steady-state adapter allocations).
  AsyncSource(IoContext& io, TryReadFn read, RetryPolicy retry = {},
              std::size_t depth = 4,
              std::shared_ptr<PayloadPool> pool = nullptr);
  /// Quiesces: blocks until any in-flight I/O job retired. Terminates
  /// because a queued job always runs (IoContext::stop drains its backlog
  /// before joining). Do not destroy from an I/O thread.
  ~AsyncSource();

  /// Install body + gate on `task` (must be a source: no in-edges), plus
  /// the unit-origin hook (origin_ns below) so frame-journey tracing
  /// starts each unit's clock at device-read completion rather than at
  /// the first firing — prefetch dwell in the completion buffer then
  /// shows up in end-to-end latency, where a QoS reader expects it.
  void bind(mpsoc::TaskGraph& graph, mpsoc::TaskId task);

  /// Remember how many units to produce, then BoundaryAdapter::attach
  /// (which starts prefetching).
  void attach(std::uint64_t total_units, std::function<void()> waker);

  /// Ingress stamp (Telemetry::now_ns epoch) of unit `unit`: the instant
  /// its device read completed on the I/O thread. 0 when unknown (unit
  /// already delivered, not yet read, or an empty failed-boundary
  /// payload) — the engine then falls back to the firing-start stamp.
  [[nodiscard]] std::uint64_t origin_ns(std::uint64_t unit) const;

 private:
  void body(mpsoc::TaskFiring& firing);
  void drain() override;
  void pump_locked() override;

  TryReadFn read_;
  std::deque<mpsoc::Payload> buffered_;
  /// Read-completion stamps, in lockstep with buffered_; pop_base_ is
  /// the unit index of the front slot (pops are strictly in order).
  std::deque<std::uint64_t> origins_;
  std::uint64_t pop_base_ = 0;
  std::uint64_t next_read_ = 0;
  std::uint64_t total_ = 0;
  /// Gate word: buffered_.size(), published with release so the gate is
  /// a wait-free acquire load from workers and thieves.
  std::atomic<std::size_t> gate_count_{0};
};

/// Boundary *sink*: a graph sink task feeding an external writer. The
/// task body banks a pool-drawn copy of the payload in a bounded buffer
/// (gate: "the buffer has space", so a slow device back-pressures the
/// pipeline by parking the sink task, never a worker); the I/O thread
/// drains the buffer in order through the writer.
class AsyncSink final : public BoundaryAdapter {
 public:
  /// `write` follows the TryWriteFn status convention (see AsyncSource).
  /// The unit being retried stays held by the adapter and keeps its
  /// occupancy slot, so a retrying sink back-pressures the pipeline
  /// exactly like a slow device would.
  AsyncSink(IoContext& io, TryWriteFn write, RetryPolicy retry = {},
            std::size_t depth = 4,
            std::shared_ptr<PayloadPool> pool = nullptr);
  /// Quiesces like ~AsyncSource (waits for the in-flight drain job, not
  /// for a full flush). Do not destroy from an I/O thread.
  ~AsyncSink();

  /// Install body + gate on `task` (must be a sink with one in-edge).
  void bind(mpsoc::TaskGraph& graph, mpsoc::TaskId task);

  /// Block until every enqueued unit has been written (or dropped, if
  /// the boundary failed) and no I/O job is in flight. Call after
  /// Engine::wait() — the engine drains the *graph*, this drains the
  /// device side.
  void flush();

 private:
  void body(mpsoc::TaskFiring& firing);
  void drain() override;
  void pump_locked() override;
  void drop_held_locked() override;

  TryWriteFn write_;
  std::deque<mpsoc::Payload> pending_;
  std::uint64_t next_write_ = 0;
  /// The unit the writer holds — popped from pending_ once, its index
  /// assigned once — through its write and every retry backoff.
  /// Owned by the in-flight drain job (with none in flight, by mu_).
  mpsoc::Payload held_;
  bool holding_ = false;
  /// Units admitted but not yet fully written (pending_ plus held_); the
  /// gate compares this against depth.
  std::size_t occupied_ = 0;
  std::atomic<std::size_t> gate_occupied_{0};
};

// ---------------------------------------------------------------------------
// RTP endpoints
// ---------------------------------------------------------------------------

/// One packet of a simulated network feed with its arrival instant.
struct TimedPacket {
  std::vector<std::uint8_t> bytes;
  double arrival_us = 0.0;
};

struct RtpIngressOptions {
  /// Jitter-buffer depth handed to net::RtpReceiver.
  std::uint32_t playout_delay_units = 3;
  /// Latency realism: sleep (arrival gap * time_scale) on the I/O thread
  /// per ingested packet. 0 = ingest as fast as the pipeline pulls
  /// (tests); 1.0 = real-time modeled arrival.
  double time_scale = 0.0;
};

/// RTP receive boundary: replays a TimedPacket feed (packets may be
/// lost, reordered, corrupted — typically shaped by net::LossyLink or by
/// hand) through an RtpReceiver and emits playout units in sequence
/// order. Use `try_reader()` as an AsyncSource reader.
class RtpIngress {
 public:
  RtpIngress(std::vector<TimedPacket> feed, RtpIngressOptions options = {});

  /// I/O-thread entry (TryReadFn convention): ingest packets until unit
  /// `index` plays out. kOutOfRange only when nothing ever arrived; the
  /// receiver conceals lost packets, so this endpoint never errors on
  /// its own — it is the hook point for FaultInjector::wrap_read
  /// (modeled NIC/driver faults).
  common::Result<mpsoc::Payload> try_read(std::uint64_t index);
  [[nodiscard]] TryReadFn try_reader() {
    return [this](std::uint64_t i) { return try_read(i); };
  }

  /// Units delivered as a repeat of the previous one (receiver-side
  /// interior concealment plus ingress-side tail concealment).
  [[nodiscard]] std::uint64_t concealed() const;
  [[nodiscard]] std::uint64_t packets_received() const;
  [[nodiscard]] double jitter_us() const;

 private:
  mutable std::mutex mu_;
  std::vector<TimedPacket> feed_;
  std::size_t feed_pos_ = 0;
  net::RtpReceiver receiver_;
  double time_scale_;
  double clock_us_ = 0.0;
  mpsoc::Payload last_unit_;
  std::uint64_t tail_concealed_ = 0;
};

struct RtpEgressOptions {
  /// Media-clock ticks per unit (e.g. 3000 = 90 kHz at 30 fps).
  std::uint32_t timestamp_step = 3000;
  /// Sleep (pacing_us * time_scale) per packet sent — the serialization
  /// delay of the uplink. 0 = no pacing.
  double pacing_us = 0.0;
  double time_scale = 0.0;
};

/// RTP transmit boundary: packetizes each unit with an RtpSender and
/// appends it to an in-memory wire log. Use `try_writer()` as an
/// AsyncSink writer.
class RtpEgress {
 public:
  explicit RtpEgress(RtpEgressOptions options = {});

  /// TryWriteFn convention; the in-memory wire log cannot fail, so this
  /// always returns ok — the FaultInjector::wrap_write hook point.
  common::Status try_write(std::uint64_t index, const mpsoc::Payload& unit);
  [[nodiscard]] TryWriteFn try_writer() {
    return [this](std::uint64_t i, const mpsoc::Payload& p) {
      return try_write(i, p);
    };
  }

  /// The serialized packets, in send order (stable after flush()).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> take_packets();
  [[nodiscard]] std::uint64_t packets_sent() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;

 private:
  mutable std::mutex mu_;
  net::RtpSender sender_;
  RtpEgressOptions options_;
  std::vector<std::vector<std::uint8_t>> packets_;
  std::uint64_t bytes_ = 0;
};

/// Build a paced feed from pre-packetized units (interval_us between
/// packets) — the "clean network" baseline tests then perturb.
[[nodiscard]] std::vector<TimedPacket> make_timed_feed(
    std::vector<std::vector<std::uint8_t>> packets, double interval_us);

// ---------------------------------------------------------------------------
// Block-storage endpoints
// ---------------------------------------------------------------------------

/// Units of a stream stored in one FAT file: unit i occupies
/// [offsets[i], offsets[i] + sizes[i]).
struct StreamIndex {
  std::string path;
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> sizes;
};

struct BlockIoOptions {
  fs::BlockDevice::TimingModel timing;
  /// Latency realism: sleep (modeled device time * time_scale) on the
  /// I/O thread per operation. 0 = no sleep (tests), 1.0 = the modeled
  /// seek/transfer latency for real.
  double time_scale = 0.0;
};

/// Block-storage read boundary: serves stream units from a FAT file via
/// ranged reads, charging the device's modeled seek/transfer time as
/// real latency on the I/O thread. Endpoints sharing a volume must share
/// `volume_mu` (FatVolume is not thread-safe) — or simply share a
/// single-threaded IoContext.
class BlockFileSource {
 public:
  BlockFileSource(fs::FatVolume& volume, std::shared_ptr<std::mutex> volume_mu,
                  StreamIndex index, BlockIoOptions options = {});

  /// TryReadFn convention: past-the-end reads are kOutOfRange (clean
  /// EOS), volume errors surface as kInternal with the device's message —
  /// permanent, never silently swallowed as an empty payload.
  common::Result<mpsoc::Payload> try_read(std::uint64_t index);
  [[nodiscard]] TryReadFn try_reader() {
    return [this](std::uint64_t i) { return try_read(i); };
  }

  [[nodiscard]] double modeled_io_us() const;  ///< device time this endpoint consumed
  /// Every device error this endpoint observed (not just the first).
  [[nodiscard]] IoErrorSummary error_summary() const;

 private:
  fs::FatVolume* volume_;
  std::shared_ptr<std::mutex> volume_mu_;
  StreamIndex index_;
  BlockIoOptions options_;
  mutable std::mutex mu_;
  double modeled_us_ = 0.0;
  IoErrorSummary errors_;
};

/// Block-storage write boundary: appends each unit to a FAT file.
class BlockFileSink {
 public:
  BlockFileSink(fs::FatVolume& volume, std::shared_ptr<std::mutex> volume_mu,
                std::string path, BlockIoOptions options = {});

  /// TryWriteFn convention: volume errors surface as kInternal
  /// (permanent).
  common::Status try_write(std::uint64_t index, const mpsoc::Payload& unit);
  [[nodiscard]] TryWriteFn try_writer() {
    return [this](std::uint64_t i, const mpsoc::Payload& p) {
      return try_write(i, p);
    };
  }

  [[nodiscard]] double modeled_io_us() const;
  /// Every device error this endpoint observed (not just the first).
  [[nodiscard]] IoErrorSummary error_summary() const;

 private:
  fs::FatVolume* volume_;
  std::shared_ptr<std::mutex> volume_mu_;
  std::string path_;
  BlockIoOptions options_;
  mutable std::mutex mu_;
  double modeled_us_ = 0.0;
  IoErrorSummary errors_;
};

}  // namespace mmsoc::runtime
