// Concurrent dataflow executor for MPSoC task graphs.
//
// The mpsoc layer *predicts* a schedule (list_schedule); this layer
// actually *runs* the graph. The scheduler decouples *logical* placement
// from *physical* execution: the analytic mapping assigns every task a
// PE, which the engine treats as a placement hint — each worker thread
// owns a runqueue of task handles, a task initially lands on the worker
// `mapped PE mod pool size`, and from there the runqueue scheduler (not
// the mapping) decides where it executes. Each graph edge becomes a
// bounded SPSC channel, so a full channel stalls the producer
// (back-pressure) and the whole graph software-pipelines across
// iterations exactly the way the analytic initiation-interval model
// assumes. An Engine multiplexes any number of concurrent Sessions
// (independent pipelines, e.g. N simultaneous transcodes) over one
// shared worker pool — and, unlike a build-then-start-then-frozen batch
// executor, keeps its front door open: submit() admits new sessions
// while the engine is running.
//
// Determinism: at any instant every task is held by exactly one worker
// (in its runqueue, or popped by it for a firing batch), only that
// worker fires it, and it fires its iterations in order, consuming from
// and producing into FIFO channels. Task bodies may therefore keep
// closure state, and the streamed output is bit-identical no matter how
// many workers execute the graph — or how tasks migrate between them.
//
// Hot-loop dispatch (batched firing + payload recycling): a worker pops
// one runnable task from its queue, releases the queue mutex, fires up
// to 8 consecutive iterations (the firing quantum), re-queues the task
// at the tail, and coalesces channel-peer notifies to the batch end
// (plus an immediate wakeup when a firing unblocks a parked peer) — so
// the mutex, the eventcount notifies, and the clock reads are paid per
// batch, not per firing. Because bodies run with no engine lock held, a
// body that blocks (a modeled accelerator, an inline device op) stalls
// only its own task; admission and thieves proceed. Channel payload
// buffers circulate through per-edge free-list rings: bodies receive
// consumed buffers back as cleared, capacity-warm TaskFiring::outputs,
// so the steady-state data plane performs zero heap allocations
// (tests/alloc_test.cpp holds it to that).
//
// Work stealing (bounded): an idle worker that finds nothing runnable in
// its own queue migrates ONE whole task from a loaded peer before
// parking. Migration happens only at an iteration boundary — a task that
// is mid-batch is popped out of its owner's queue and therefore
// invisible to thieves; only queued tasks can move. A steal moves the
// task handle — never individual firings — and requires the victim to
// hold at least two unfinished tasks (queued plus popped-for-a-batch),
// so a lone task is never ping-ponged but a worker blocked inside a
// long body can still be relieved of its last queued-ready task.
// Because the task moves wholesale, every edge keeps
// exactly one producer and one consumer thread at a time; the ownership
// hand-off is ordered by the queue mutexes plus seq_cst fences on the
// owner word (see engine.cpp). Liveness never depends on stealing: an
// owner always runs its own ready tasks, stealing only shortens the
// tail when the static hint skews.
//
// Wakeup protocol (eventcount): each worker owns a 32-bit version word.
// An idle worker loads its version, rescans its runqueue once more, and
// if still nothing is ready calls std::atomic::wait(v) — sleeping
// indefinitely (zero CPU) until a peer bumps the version. After a firing
// batch a task bumps (fetch_add + notify_one) only the versions of the
// workers that *currently own* the tasks at the other end of the
// channels it touched (owners are re-read per batch, so wakeups follow
// migrations), so wakeups are O(peers) per batch and precisely targeted.
//
// Boundary gates (async I/O integration): a task whose mpsoc::Task
// carries a TaskGate fires only while the gate returns true in addition
// to the channel conditions. A gate-closed task parks its worker exactly
// like an empty input channel — no spin, no inline blocking — and the
// external I/O completion wakes the task's *current* owner through the
// callable returned by Engine::task_waker (the same fence protocol as
// channel-peer wakeups, so migrations never swallow an I/O wakeup). Time
// a task spends channel-ready but gate-closed is measured as I/O stall
// (TaskStats::io_stall_s), separating boundary waits from compute.
//
// Cancellation: Session::cancel() (via Engine::cancel) flips a per-
// session flag and wakes every worker. Workers observe the flag at
// iteration boundaries only — a firing in progress completes — then
// retire the session's tasks: remaining iterations are dropped and input
// channels drained so back-pressured upstream peers can never deadlock
// against a dead consumer. Per-session deadlines are enforced by a
// monitor thread that sleeps until the earliest pending deadline and
// cancels expired sessions with kDeadlineExceeded.
//
// Session lifecycle: a session closes exactly once — on the worker whose
// accounting retires its last firing (fired, or dropped after a cancel),
// outside the queue locks, or in wait() if it never got there. Closing
// folds the task and channel stats into its SessionReport, unlinks it
// from the live set, frees its channels, payload free rings and task
// state, and only then calls on_session_complete. A finished session
// keeps only its report; the deadline monitor, the stall watchdog,
// cancel_all and task wakers walk live sessions only, and a waker called
// after close is a no-op. A report is final once its session closed and
// its boundaries were flushed: a boundary failure or device error
// landing after close (a sink write still in flight) amends it.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mpsoc/schedule.h"
#include "mpsoc/taskgraph.h"
#include "runtime/fault.h"
#include "runtime/queue.h"
#include "runtime/telemetry.h"

namespace mmsoc::runtime {

struct EngineOptions {
  /// 0 = one worker per PE referenced by the sessions registered before
  /// start() (the "runtime mirrors the modeled platform" default), or —
  /// when the engine starts empty to serve dynamic submits — one worker
  /// per hardware thread.
  std::size_t workers = 0;
  /// Most tokens buffered per edge — the software-pipelining depth. 1
  /// degrades to lock-step execution; larger values decouple stage
  /// jitter. Sized to the firing quantum (8): a firing batch stops
  /// early at a full/empty channel, so a capacity below 8 silently caps
  /// interior-stage batches at the capacity.
  /// Each edge also gets a byte budget of 256 KiB of declared tokens
  /// (mpsoc::Edge::bytes): it holds clamp(256 KiB / bytes,
  /// min(2, channel_capacity), channel_capacity) tokens. Frame-sized
  /// tokens (a CIF frame is ~150 KB) are therefore double-buffered, the
  /// way frame-pipelined platforms size buffers between processors, so
  /// a fast producer cannot queue many frames of latency ahead of a
  /// slow stage. Edges declaring bytes == 0 get channel_capacity.
  std::size_t channel_capacity = 8;
  /// Invoked once per session, right after it closed (see "Session
  /// lifecycle" above): from the worker that retired its last firing, or
  /// from wait() for a session that never finished. Its report is
  /// already in place. Runs with no engine lock held, so it may call
  /// Engine::submit/cancel/report — but it must stay cheap (it is on the
  /// firing path) and must not block on Engine::wait().
  std::function<void(std::size_t session)> on_session_complete;
  /// Telemetry sink (see runtime/telemetry.h): each worker registers an
  /// event ring track at start() and emits batch / steal / park / stall /
  /// session events at batch granularity — never per firing. The sink is
  /// borrowed and must outlive the engine; one sink may be shared by
  /// several engines (ShardedEngine shares one across shards). nullptr
  /// disables instrumentation down to one pointer check per batch.
  Telemetry* telemetry = nullptr;
  /// Track / metric name prefix for this engine: tracks are
  /// "<prefix>.worker<N>", metrics "<prefix>.firings" etc. A sharded
  /// front-end gives each shard a distinct prefix ("shard0", "shard1").
  std::string telemetry_prefix = "engine";
};

/// Per-session execution policy.
struct SessionOptions {
  /// Wall-clock budget measured from Engine::start() (sessions admitted
  /// before start) or from submit() (sessions admitted while running);
  /// zero = unlimited. An expired session is cancelled exactly like
  /// Engine::cancel, but its report carries kDeadlineExceeded.
  std::chrono::nanoseconds timeout{0};
};

/// How a session ended.
enum class SessionOutcome {
  kPending,           ///< session not closed yet
  kCompleted,         ///< every task fired every iteration
  kCancelled,         ///< Engine::cancel / cancel_all / destructor
  kDeadlineExceeded,  ///< per-session timeout expired
  kAborted,           ///< engine stopped early (another session's error)
  kFailed,            ///< boundary failure (Engine::fail_session) — kUnavailable
};

[[nodiscard]] std::string_view to_string(SessionOutcome outcome) noexcept;

/// Measured execution statistics of one task.
struct TaskStats {
  std::string name;
  std::size_t pe = 0;           ///< logical PE the mapping assigned
  std::size_t home_worker = 0;  ///< placement hint: pe mod pool size
  /// Worker that owned the task when the session ended. Equal to
  /// home_worker unless the task was stolen (migrations > 0).
  std::size_t worker = 0;
  std::uint64_t migrations = 0;  ///< times the task changed workers
  std::uint64_t firings = 0;
  /// Total batch wall time: body time plus the wait-free intra-batch
  /// channel hand-off (tens of ns per firing — the hot loop reads the
  /// clock twice per firing batch, not per firing, so locks, parks, and
  /// notifies are never inside the window; only vanishingly small for
  /// sub-microsecond synthetic bodies). Per-firing service times come
  /// from the sampled unit trace (StageUnitTrace::service_s).
  double busy_s = 0.0;
  /// True once the task fired at least once.
  [[nodiscard]] bool fired() const noexcept { return firings > 0; }
  /// Boundary (gate) waits: firings that found their channels ready but
  /// the I/O gate closed, and the total worker-observed wait. Always zero
  /// for pure compute tasks; for async sources/sinks this is the time the
  /// pipeline spent blocked on the device, not on compute.
  std::uint64_t io_stalls = 0;
  double io_stall_s = 0.0;
  /// Mean boundary wait per firing — the trace column that keeps I/O
  /// stalls from being misattributed to compute time.
  [[nodiscard]] double mean_io_stall_s() const noexcept {
    return firings > 0 ? io_stall_s / static_cast<double>(firings) : 0.0;
  }
  /// Measured mean body time per firing — the calibration-loop input
  /// (feed back into core::VideoCosts / the analytic mapper).
  [[nodiscard]] double mean_firing_s() const noexcept {
    return firings > 0 ? busy_s / static_cast<double>(firings) : 0.0;
  }
};

/// Per-stage frame-journey accounting over the *sampled* units of one
/// session (see TelemetryOptions::unit_sample_period). Wait/service are
/// sums over sampled firings; the means are the per-unit averages the
/// calibration loop and the trace table consume.
struct StageUnitTrace {
  std::string name;
  std::uint64_t sampled = 0;   ///< sampled firings observed at this stage
  double queue_wait_s = 0.0;   ///< firing start minus max input enqueue
  double gate_wait_s = 0.0;    ///< boundary (I/O) wait attributed to sampled units
  double service_s = 0.0;      ///< body time of the sampled firings
  [[nodiscard]] double mean_queue_wait_s() const noexcept {
    return sampled > 0 ? queue_wait_s / static_cast<double>(sampled) : 0.0;
  }
  [[nodiscard]] double mean_gate_wait_s() const noexcept {
    return sampled > 0 ? gate_wait_s / static_cast<double>(sampled) : 0.0;
  }
  [[nodiscard]] double mean_service_s() const noexcept {
    return sampled > 0 ? service_s / static_cast<double>(sampled) : 0.0;
  }
  /// Total budget this stage consumed per sampled unit — the
  /// deadline-miss attribution key.
  [[nodiscard]] double mean_total_s() const noexcept {
    return mean_queue_wait_s() + mean_gate_wait_s() + mean_service_s();
  }
};

/// End-to-end frame-journey report of one session: per-unit latency from
/// origin stamp (I/O ingress or first-task firing start) to sink-firing
/// completion, over the sampled units only. Empty (sample_period == 0 /
/// sampled_completed == 0) when unit tracing was off or telemetry absent.
struct UnitTraceReport {
  std::size_t sample_period = 0;        ///< 0 = tracing was off
  std::uint64_t sampled_completed = 0;  ///< sampled units retired at sinks
  Histogram::Snapshot latency;          ///< end-to-end ns, log2 buckets
  double min_latency_s = std::numeric_limits<double>::quiet_NaN();
  double max_latency_s = std::numeric_limits<double>::quiet_NaN();
  /// Mean absolute latency difference between consecutive sampled units
  /// (frame-to-frame jitter, the streaming QoS number).
  double jitter_s = 0.0;
  std::vector<StageUnitTrace> stages;  ///< indexed by TaskId

  [[nodiscard]] bool enabled() const noexcept { return sample_period > 0; }
  [[nodiscard]] double mean_latency_s() const noexcept {
    return latency.mean() * 1e-9;
  }
  [[nodiscard]] double p50_s() const noexcept {
    return static_cast<double>(latency.quantile(0.50)) * 1e-9;
  }
  [[nodiscard]] double p99_s() const noexcept {
    return static_cast<double>(latency.quantile(0.99)) * 1e-9;
  }
  /// Stage that consumed the most per-unit budget (wait + gate + service)
  /// — "which stage ate the deadline". SIZE_MAX when nothing was sampled.
  [[nodiscard]] std::size_t dominant_stage() const noexcept {
    std::size_t best = static_cast<std::size_t>(-1);
    double best_cost = -1.0;
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const double c = stages[i].mean_total_s();
      if (stages[i].sampled > 0 && c > best_cost) {
        best = i;
        best_cost = c;
      }
    }
    return best;
  }
};

/// Measured execution report of one session (one pipeline run).
struct SessionReport {
  std::string graph;
  std::uint64_t iterations = 0;
  double wall_s = 0.0;                    ///< first firing ready -> last firing done
  std::vector<TaskStats> tasks;           ///< indexed by TaskId
  /// EngineOptions::channel_capacity: the deepest any edge may be. An
  /// edge with large declared tokens holds fewer (see channel_capacity).
  std::size_t channel_capacity = 0;
  /// Max over all edges of the tokens buffered at once; each edge stays
  /// within its own capacity, so this is <= channel_capacity.
  std::size_t max_channel_occupancy = 0;
  /// Per edge (indexed by edge id), the most tokens it buffered at once.
  std::vector<std::size_t> edge_peak_occupancy;
  /// Total task migrations across the session (sum of tasks[].migrations);
  /// 0 when the load never skewed enough for an idle worker to steal.
  std::uint64_t task_migrations = 0;
  /// Total worker-observed I/O-boundary stall time (sum of
  /// tasks[].io_stall_s) — how long the session's tasks sat channel-ready
  /// but gate-closed waiting on devices. 0 for pure compute sessions.
  double io_stall_s = 0.0;
  /// Producer-side buffer reuses across all channels: how often a firing
  /// was handed a consumed buffer back instead of allocating. Approaches
  /// iterations * edges once the free rings warm up.
  std::uint64_t payloads_recycled = 0;

  /// Frame-journey accounting over sampled units (empty when telemetry
  /// is off or TelemetryOptions::unit_sample_period == 0).
  UnitTraceReport unit_trace;

  /// Every boundary device error this session observed (count, first /
  /// last failing unit, first/last status, retries scheduled) — fed by
  /// Engine::record_io_error from the I/O adapters' error observers, so
  /// a multi-error episode stays diagnosable even though `status` keeps
  /// only the terminal story.
  IoErrorSummary io_errors;
  /// The unit Engine::fail_session blamed (valid when outcome == kFailed).
  std::uint64_t failed_unit = 0;

  SessionOutcome outcome = SessionOutcome::kPending;
  /// ok for kCompleted, a kCancelled / kDeadlineExceeded / kUnavailable
  /// status otherwise. Distinct from Engine::run()'s return: a cancelled
  /// session is a *graceful* end, not an engine failure.
  common::Status status;
  /// Firings that actually happened (== iterations * tasks when complete).
  std::uint64_t completed_firings = 0;

  /// Steady-state initiation interval actually achieved.
  [[nodiscard]] double measured_ii_s() const noexcept {
    return iterations > 0 ? wall_s / static_cast<double>(iterations) : 0.0;
  }
  [[nodiscard]] double measured_throughput_hz() const noexcept {
    const double ii = measured_ii_s();
    return ii > 0.0 ? 1.0 / ii : 0.0;
  }
  /// Total body seconds across all tasks (lower bound on 1-worker wall).
  [[nodiscard]] double total_busy_s() const noexcept;
  /// Per-task mean service times indexed by TaskId — the vector the
  /// model-calibration loop consumes.
  [[nodiscard]] std::vector<double> mean_service_times() const;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Cancels every in-flight session and joins the pool if the engine is
  /// still running (a back-pressured session must never wedge teardown).
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Admit a session: run `graph` under `mapping` for `iterations` graph
  /// iterations. Legal before start() (the session launches with the
  /// pool) and — dynamic admission — while the engine is running, in
  /// which case its tasks are enqueued on live workers immediately.
  /// Rejected once wait() began draining or the engine finished. Every
  /// cycle of the graph must carry a delay token (mpsoc::Edge::delay: a
  /// delay edge's channel starts with `delay` empty payloads, which its
  /// consumer's first `delay` firings see). The graph must be fully
  /// executable (every task has a body) and must outlive the engine;
  /// each session needs its own graph instance when bodies carry mutable
  /// closure state. Thread-safe against other submits, cancels, and the
  /// running workers.
  [[nodiscard]] common::Result<std::size_t> submit(
      const mpsoc::TaskGraph& graph, mpsoc::Mapping mapping,
      std::uint64_t iterations, SessionOptions session_options = {});

  /// Launch the worker pool and return immediately; pair with wait().
  /// Starting with zero sessions is legal: the pool parks until the
  /// first submit() arrives.
  [[nodiscard]] common::Status start();
  /// Close admission (further submits are rejected), block until every
  /// admitted session completed or was cancelled, then close any session
  /// still live (aborted by a body error). Returns the first *error* (a
  /// body throwing); cancellation and deadline expiry are reported
  /// per-session instead.
  [[nodiscard]] common::Status wait();
  /// start() + wait(). May be called once.
  [[nodiscard]] common::Status run();

  /// Gracefully cancel one session (thread-safe from any thread, also
  /// against concurrent submits). Workers observe the flag at iteration
  /// boundaries, drop remaining iterations, and drain the session's
  /// channels so back-pressured peers never deadlock. Idempotent; a
  /// no-op on sessions that already finished.
  void cancel(std::size_t session);
  /// Cancel every session.
  void cancel_all();

  /// Boundary failure escalation: retire `session` through the normal
  /// cancellation machinery, but report it as SessionOutcome::kFailed
  /// with a kUnavailable status naming the failing `unit` — the clean
  /// fail-fast ending for an exhausted retry budget, a permanent device
  /// error, or an I/O context that stopped mid-session. Typically wired
  /// as the AsyncSource/AsyncSink failure handler. First failure wins;
  /// idempotent and thread-safe like cancel(). Co-resident sessions are
  /// unaffected.
  void fail_session(std::size_t session, std::uint64_t unit,
                    common::Status status);

  /// Per-error observer feed for SessionReport::io_errors: record one
  /// device error (including ones that will be retried) against
  /// `session`. Thread-safe, callable from I/O threads; typically wired
  /// as the AsyncSource/AsyncSink error observer. Errors recorded here
  /// do not end the session — fail_session does.
  void record_io_error(std::size_t session, std::uint64_t unit,
                       const common::Status& status, bool will_retry);

  /// Wakeup hook for asynchronous boundary tasks: a thread-safe callable
  /// that wakes the worker *currently* owning `task` of `session` (owners
  /// are re-read per call, so wakeups follow work-stealing migrations).
  /// An I/O thread calls it after opening the task's gate (completion
  /// enqueued) so the parked worker rescans; calling it spuriously is
  /// harmless. Valid only once the session is wired onto live workers —
  /// i.e. the engine is running (dynamic admission). The callable may
  /// outlive the session and the Engine: it looks the task up in the
  /// live set per call and is a no-op after close or destruction (also
  /// when the session closed before it was asked for), so a straggling
  /// I/O completion never touches freed task state or a dead pool.
  [[nodiscard]] common::Result<std::function<void()>> task_waker(
      std::size_t session, mpsoc::TaskId task);

  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] std::size_t session_count() const noexcept;
  /// Final once the session closed (by the time on_session_complete
  /// fires or wait() returns) and its boundaries were flushed.
  [[nodiscard]] const SessionReport& report(std::size_t session) const;

  /// Workers the pool resolved to (valid after start(); before, the
  /// configured value, which may be 0 = auto).
  [[nodiscard]] std::size_t worker_count() const noexcept;
  /// Total task migrations performed by the steal scheduler so far.
  [[nodiscard]] std::uint64_t steal_count() const noexcept;

  /// Stall-watchdog dumps accumulated so far (most recent last, bounded).
  /// The watchdog — registered with the telemetry sink's collector when
  /// both are configured — flags any live session that completed zero
  /// firings across TelemetryOptions::watchdog_periods consecutive drain
  /// periods and dumps per-task iteration / owner / gate / channel state
  /// for diagnosis. One dump per stall episode: a session is re-armed
  /// only after it makes progress again. Thread-safe.
  [[nodiscard]] std::vector<std::string> stall_reports() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: run one graph as a single session on a fresh engine.
[[nodiscard]] common::Result<SessionReport> run_pipeline(
    const mpsoc::TaskGraph& graph, const mpsoc::Mapping& mapping,
    std::uint64_t iterations, const EngineOptions& options = {});

}  // namespace mmsoc::runtime
