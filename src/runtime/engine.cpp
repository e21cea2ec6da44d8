#include "runtime/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>

#include <cstring>
#endif

namespace mmsoc::runtime {

using common::Result;
using common::Status;
using common::StatusCode;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t to_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

// Cancellation codes stored in LiveSession::cancel_code. Zero means the
// session is live; the first CAS winner decides the reported outcome.
constexpr int kLive = 0;
constexpr int kCancelledByUser = 1;
constexpr int kDeadlineExpired = 2;
constexpr int kFailedByBoundary = 3;      // Engine::fail_session
constexpr int kQuarantinedByWatchdog = 4; // stall-watchdog escalation

// Dispatch granularity: a worker that pops a task fires up to this many
// consecutive iterations (stopping early on empty input, full output,
// closed gate, cancel, or engine stop) before re-queueing it. Amortizes
// the runqueue mutex, the eventcount notifies and the per-firing clock
// reads, which cap throughput when bodies are small. Migration and
// cancellation still act at iteration boundaries only.
constexpr std::size_t kFiringQuantum = 8;

// Declared token bytes an edge may buffer (EngineOptions::channel_capacity).
constexpr double kChannelByteBudget = 256.0 * 1024.0;

// Slots of one edge's channel: `channel_capacity`, cut to the byte budget
// for large tokens but never below double buffering. bytes == 0 means the
// graph declared no size.
std::size_t edge_capacity(const mpsoc::Edge& edge,
                          std::size_t channel_capacity) {
  if (!(edge.bytes > 0.0)) return channel_capacity;
  const auto min_slots = std::min<std::size_t>(2, channel_capacity);
  return static_cast<std::size_t>(std::clamp(
      std::floor(kChannelByteBudget / edge.bytes),
      static_cast<double>(min_slots), static_cast<double>(channel_capacity)));
}

}  // namespace

std::string_view to_string(SessionOutcome outcome) noexcept {
  switch (outcome) {
    case SessionOutcome::kPending: return "pending";
    case SessionOutcome::kCompleted: return "completed";
    case SessionOutcome::kCancelled: return "cancelled";
    case SessionOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case SessionOutcome::kAborted: return "aborted";
    case SessionOutcome::kFailed: return "failed";
    case SessionOutcome::kQuarantined: return "quarantined";
  }
  return "?";
}

double SessionReport::total_busy_s() const noexcept {
  double s = 0.0;
  for (const auto& t : tasks) s += t.busy_s;
  return s;
}

std::vector<double> SessionReport::mean_service_times() const {
  std::vector<double> means;
  means.reserve(tasks.size());
  for (const auto& t : tasks) means.push_back(t.mean_firing_s());
  return means;
}

struct Engine::Impl {
  struct LiveSession;

  // One task of one session, as scheduled: a handle that lives in exactly
  // one worker's runqueue at a time. The worker whose queue holds it is
  // the only thread that fires it; `owner` mirrors that placement for the
  // wakeup path. All non-atomic fields are owned by the current owner;
  // migration hands them off under the queue mutexes (see try_steal).
  struct TaskRun {
    const mpsoc::TaskGraph* graph = nullptr;
    mpsoc::TaskId id = 0;
    LiveSession* sess = nullptr;
    std::size_t pe = 0;    // logical PE (mapping) — attribution key
    std::size_t home = 0;  // placement hint: pe mod pool size
    /// Worker whose runqueue currently holds this task. Read by firing
    /// peers to target wakeups; written only during migration.
    std::atomic<std::size_t> owner{0};
    std::uint64_t migrations = 0;
    /// Boundary gate of the underlying task, or null for pure compute.
    /// Points into the session's graph (which outlives the engine).
    const mpsoc::TaskGate* gate = nullptr;
    /// Unit-origin hook of the underlying task (frame-journey tracing),
    /// or null. Points into the session's graph.
    const mpsoc::UnitOriginFn* origin = nullptr;
    bool is_source = false;  ///< no in-edges: stamps origins
    bool is_sink = false;    ///< no out-edges: retires units, records latency
    /// First instant the owning worker saw this task channel-ready but
    /// gate-closed; zero while not stalled. Owner-only, handed off with
    /// the task on migration like the other non-atomic fields.
    Clock::time_point stall_since{};
    std::uint64_t io_stalls = 0;
    double io_stall_s = 0.0;
    std::vector<SpscQueue<mpsoc::Payload>*> in;   // channel per in-edge
    std::vector<SpscQueue<mpsoc::Payload>*> out;  // channel per out-edge
    /// Tasks at the far end of this task's channels (deduped, self
    /// removed). The wakeup set after a batch is their *current* owners.
    std::vector<TaskRun*> peers;
    /// Reused firing frame: the inputs/outputs vectors (and, with
    /// recycling, the payload buffers inside them) keep their capacity
    /// across firings, so the dispatch itself allocates nothing in
    /// steady state. Owner-only, handed off with the task on migration.
    mpsoc::TaskFiring scratch;
    /// Next iteration to fire. Written only by the owning worker (relaxed
    /// stores at iteration boundaries); atomic because the stall watchdog
    /// dumps it from the collector thread. The owner's own reads stay
    /// exact; a watchdog read is an instantaneous snapshot.
    std::atomic<std::uint64_t> next_iteration{0};
    std::uint64_t limit = 0;
    /// Interned task name (Telemetry::intern) for fixed-size events; 0
    /// when telemetry is off or the name table overflowed.
    std::uint16_t name_id = 0;
    // measured
    std::uint64_t firings = 0;
    double busy_s = 0.0;
    // Frame-journey accounting over sampled units (owner-only, handed off
    // with the task on migration like the other non-atomic fields).
    // ut_next_sample strength-reduces the per-firing `iter % period`
    // check to one compare: iterations fire in order within a task, so
    // the next sampled index is always known in advance.
    std::uint64_t ut_next_sample = 0;
    std::uint64_t ut_sampled = 0;
    // Queue wait / service accumulate in integer ns (one add per sampled
    // firing; the double conversion happens once at report assembly).
    std::uint64_t ut_queue_wait_ns = 0;
    std::uint64_t ut_service_ns = 0;
    double ut_gate_wait_s = 0.0;
    // Sink-only: end-to-end latency extrema and frame-to-frame jitter of
    // the sampled units this task retired.
    std::uint64_t ut_completed = 0;
    double ut_min_latency_s = std::numeric_limits<double>::infinity();
    double ut_max_latency_s = 0.0;
    std::uint64_t ut_last_latency_ns = 0;
    bool ut_have_last = false;
    double ut_jitter_sum_s = 0.0;
    std::uint64_t ut_jitter_n = 0;
  };

  /// Everything a session needs while it runs, and nothing it needs
  /// after: close_session frees it and keeps only the session's report.
  struct LiveSession {
    std::size_t index = 0;
    const mpsoc::TaskGraph* graph = nullptr;
    mpsoc::Mapping mapping;
    std::uint64_t iterations = 0;
    SessionOptions options;
    std::vector<std::unique_ptr<SpscQueue<mpsoc::Payload>>> channels;  // per edge
    std::vector<std::unique_ptr<TaskRun>> runs;  // filled when wired
    /// Firings not yet executed *or dropped by retirement*. Hits zero
    /// exactly once, and the worker whose decrement gets it there makes
    /// the last worker access to the session's tasks and channels: it
    /// closes the session.
    std::atomic<std::uint64_t> outstanding{0};
    /// kLive until the first cancel wins the CAS; the winning code is the
    /// reported outcome. cancel_ns is CAS'd from zero *before* the code
    /// CAS, so the first cancel's timestamp sticks and an acquire-load of
    /// a nonzero code also publishes it.
    std::atomic<int> cancel_code{kLive};
    std::atomic<Clock::rep> cancel_ns{0};
    Clock::time_point deadline{};  // set at start()/submit() when timeout > 0
    Clock::time_point admitted{};  // start() for pre-start, submit() after
    std::once_flag start_once;
    Clock::time_point start{};   // first firing of this session
    Clock::time_point finish{};  // last firing of this session
    /// Per-session end-to-end frame-latency histogram
    /// ("<prefix>.session<N>.frame_latency_ns"), direct-fed by sink
    /// workers so its totals agree exactly with sampled completions.
    /// Null when telemetry / unit tracing is off.
    Histogram* h_latency = nullptr;
    /// Stall-watchdog bookkeeping (guarded by sessions_mu; only the
    /// watchdog callback mutates these).
    std::uint64_t wd_last_outstanding = ~std::uint64_t{0};
    int wd_stagnant_periods = 0;
    bool wd_flagged = false;
    bool degraded = false;  ///< on_degrade fired (guarded by sessions_mu)
    /// Boundary-failure record (guarded by sessions_mu; first failure
    /// wins).
    common::Status failed_status;
    std::uint64_t failed_unit = 0;
  };

  /// One physical worker: a runqueue of task handles plus an eventcount.
  /// The mutex serializes everything that touches the queue — the
  /// owner's pick/requeue, dynamic admission appending tasks, and a
  /// thief removing one. Firing itself happens with the mutex RELEASED:
  /// the owner pops the task first, which removes it from every thief's
  /// view, so migration still cannot interleave with a firing
  /// (iteration-boundary-only migration by construction) while blocking
  /// bodies no longer stall admission or stealing of the other queued
  /// tasks. A worker sleeps on its own version word (std::atomic::wait —
  /// an indefinite futex-style park, zero CPU); any peer that may have
  /// made one of its tasks ready bumps the version and notifies.
  /// Cache-line aligned so notifies don't false-share.
  struct alignas(64) Worker {
    std::mutex mu;
    /// Unfinished tasks only: a task is requeued only while it has
    /// iterations left, so a closed session's tasks are never here.
    std::vector<TaskRun*> queue;
    /// Tasks this worker popped for a firing batch / retirement and will
    /// re-queue (guarded by mu). Thieves add it to the queued count when
    /// applying the leave-one rule: a victim blocked inside a popped
    /// task still "holds" it, so its last queued task may be stolen —
    /// without this, one blocked + one ready task would starve the ready
    /// one for the whole block.
    std::size_t inflight = 0;
    std::atomic<std::uint32_t> version{0};
  };

  enum class RunState { kIdle, kStarting, kRunning, kJoining, kDone };

  EngineOptions options;
  /// Guards the reports, the live set and the draining flag. Lock order:
  /// hub->mu -> sessions_mu -> worker.mu / pool_mu / dl_mu. Workers take
  /// sessions_mu only to close a session (TaskRun carries its
  /// LiveSession pointer), so the firing path stays lock-cheap.
  mutable std::mutex sessions_mu;
  /// One report per session ever admitted, indexed by session id; a
  /// deque so report() references survive later submits.
  std::deque<SessionReport> reports;
  /// The live-session registry: admitted and not yet closed. Everything
  /// that acts on running sessions (deadlines, watchdog, cancel_all,
  /// wakers, overload hooks) walks this set only.
  std::map<std::size_t, std::unique_ptr<LiveSession>> live;
  std::atomic<std::size_t> session_count_{0};
  std::vector<Worker> workers_;
  std::size_t resolved_workers = 0;
  Clock::time_point run_start{};

  // ---- run-time coordination ------------------------------------------
  std::atomic<RunState> state{RunState::kIdle};
  std::vector<std::thread> pool;
  std::atomic<bool> stop{false};
  /// Start line for the pool: workers park here until start() finished
  /// provisioning (worker pinning in particular), so a failed start
  /// never lets a task body fire first.
  std::atomic<bool> released{false};
  /// wait() closes admission by setting this under sessions_mu; workers
  /// exit once draining && global_outstanding == 0.
  std::atomic<bool> draining{false};
  /// Firings not yet executed or dropped, across every live session.
  std::atomic<std::uint64_t> global_outstanding{0};
  std::atomic<std::uint64_t> total_steals{0};

  // ---- telemetry (all null when disabled) -----------------------------
  // Resolved once in start() under sessions_mu; workers only read. The
  // hot path pays one `ring_of(w) == nullptr` check per *batch*.
  //
  // Split of labour (what keeps the benchmark's trace.overhead_share
  // small): workers write the ring event plus exactly one counter add per
  // batch (m_firings — the value the media server checks against
  // SessionReport totals, so it must be exact). Everything derivable
  // from the event stream — batch/park/steal counters, latency
  // histograms — is fed by the collector through the tracks' drain
  // callbacks, off the worker threads entirely. Drain-fed values undercount by dropped() when a
  // ring overflows; that trade is documented at the metric names.
  Telemetry* tel = nullptr;
  std::vector<EventRing*> rings;  // parallel to workers_
  Counter* m_firings = nullptr;
  Counter* m_batches = nullptr;           // drain-fed
  Counter* m_steals = nullptr;            // drain-fed
  Counter* m_parks = nullptr;             // drain-fed
  Counter* m_io_stalls = nullptr;
  Counter* m_sessions_completed = nullptr;
  Histogram* h_batch_ns = nullptr;        // drain-fed
  Histogram* h_io_stall_ns = nullptr;     // drain-fed
  Histogram* h_queue_depth = nullptr;     // sampled: 1 in 16 picks
  // Frame-journey tracing (zero when unit tracing is off). The sampling
  // period is resolved once from TelemetryOptions::unit_sample_period;
  // the per-firing cost with tracing on is one compare against the
  // task's precomputed next sampled index (TaskRun::ut_next_sample)
  // plus, on sampled firings only, two extra clock reads and one ring
  // event.
  std::size_t unit_period = 0;
  Counter* m_units_sampled = nullptr;     // sampled units retired at sinks; exact
  Histogram* h_unit_latency = nullptr;    // end-to-end ns across sessions; exact
  Histogram* h_unit_queue_wait_ns = nullptr;  // drain-fed from kUnitFlow
  Histogram* h_unit_service_ns = nullptr;     // drain-fed from kUnitFlow
  Counter* m_watchdog_stalls = nullptr;
  Counter* m_watchdog_recoveries = nullptr;
  // Stall-watchdog registration + retained dump strings / recoveries.
  std::uint64_t watchdog_id = 0;
  static constexpr std::size_t kMaxStallReports = 16;
  mutable std::mutex stall_mu;
  std::vector<std::string> stall_reports_;
  std::vector<Engine::StallRecovery> stall_recoveries_;

  /// One event of task `r` on a worker's ring.
  static void emit(EventRing& ring, EventKind kind, const TaskRun& r,
                   std::uint64_t begin_ns, std::uint64_t end_ns,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    ring.emit(TelemetryEvent{
        TelemetryEvent::pack0(kind, r.name_id,
                              static_cast<std::uint32_t>(r.sess->index + 1)),
        begin_ns, end_ns, arg0, arg1});
  }

  EventRing* ring_of(std::size_t w) const {
    if (rings.empty()) return nullptr;
    return rings[w];
  }

  /// Caller holds sessions_mu; workers_ is built. Registers one track per
  /// worker and resolves the metric handles under the engine's prefix.
  void init_telemetry_locked() {
    if (options.telemetry == nullptr) return;
    tel = options.telemetry;
    const std::string& p = options.telemetry_prefix;
    auto& m = tel->metrics();
    m_firings = m.counter(p + ".firings");
    m_batches = m.counter(p + ".batches");
    m_steals = m.counter(p + ".steals");
    m_parks = m.counter(p + ".parks");
    m_io_stalls = m.counter(p + ".io_stalls");
    m_sessions_completed = m.counter(p + ".sessions_completed");
    h_batch_ns = m.histogram(p + ".batch_latency_ns");
    h_io_stall_ns = m.histogram(p + ".io_stall_ns");
    h_queue_depth = m.histogram(p + ".queue_depth");
    unit_period = tel->options().unit_sample_period;
    m_units_sampled = m.counter(p + ".units_sampled");
    h_unit_latency = m.histogram(p + ".unit_latency_ns");
    h_unit_queue_wait_ns = m.histogram(p + ".unit_queue_wait_ns");
    h_unit_service_ns = m.histogram(p + ".unit_service_ns");
    m_watchdog_stalls = m.counter(p + ".watchdog.stalls");
    m_watchdog_recoveries = m.counter(p + ".watchdog.recoveries");
    // Handles above resolve before the callback can observe an event.
    // ~Impl unhooks the callback before these members die.
    const auto on_drain = [this](const TelemetryEvent& ev) {
      switch (ev.kind()) {
        case EventKind::kFiringBatch:
          m_batches->add(1);
          h_batch_ns->record(ev.end_ns - ev.begin_ns);
          break;
        case EventKind::kPark:
          m_parks->add(1);
          break;
        case EventKind::kSteal:
          m_steals->add(1);
          break;
        case EventKind::kIoStall:
          h_io_stall_ns->record(ev.arg0);
          break;
        case EventKind::kUnitFlow: {
          // begin..end spans ready->done; arg1 carries service<<1|source,
          // so the queue wait falls out as span - service.
          const std::uint64_t service = ev.arg1 >> 1;
          const std::uint64_t span =
              ev.end_ns >= ev.begin_ns ? ev.end_ns - ev.begin_ns : 0;
          h_unit_queue_wait_ns->record(span >= service ? span - service : 0);
          h_unit_service_ns->record(service);
          break;
        }
        default:
          break;
      }
    };
    rings.resize(resolved_workers);
    for (std::size_t w = 0; w < resolved_workers; ++w) {
      rings[w] = tel->register_track(p + ".worker" + std::to_string(w), on_drain);
    }
  }
  std::mutex error_mu;
  Status first_error = Status::ok();
  /// Serializes start()'s construction of `workers_` against the cold
  /// broadcast path (cancel/error may run concurrently with start() from
  /// another thread). Per-fire notify_worker needs no lock: workers only
  /// exist after `workers_` is fully built and it is never reassigned.
  std::mutex pool_mu;

  /// Detachable back-pointer shared with every task_waker callable. The
  /// destructor nulls `impl` under the hub mutex, so an I/O completion
  /// that fires after the engine died degrades to a no-op instead of
  /// touching freed memory. Lock order: hub->mu -> pool_mu (nothing
  /// takes them the other way around).
  struct WakerHub {
    std::mutex mu;
    Impl* impl = nullptr;
  };
  std::shared_ptr<WakerHub> hub = std::make_shared<WakerHub>();

  Impl() { hub->impl = this; }
  ~Impl() {
    // The watchdog callback captures this Impl; unregister first —
    // remove_watchdog blocks until any in-flight poll returns.
    if (tel != nullptr && watchdog_id != 0) {
      tel->remove_watchdog(watchdog_id);
    }
    // The drain callbacks capture this Impl; unhook them (each unhook
    // drains the ring through the callback one final time) before the
    // metric handles they feed go away. Workers are already joined.
    if (tel != nullptr) {
      for (EventRing* r : rings) tel->reset_drain_callback(r);
    }
    std::lock_guard lock(hub->mu);
    hub->impl = nullptr;
  }

  // Deadline monitor: one thread sleeping until the earliest pending
  // deadline (not the worker hot path — workers never timed-wait).
  // Dynamic admission marks dl_dirty so a new, earlier deadline shortens
  // the sleep.
  std::thread deadline_thread;
  std::mutex dl_mu;
  std::condition_variable dl_cv;
  bool dl_stop = false;
  bool dl_dirty = false;

  void notify_worker(std::size_t w) {
    workers_[w].version.fetch_add(1, std::memory_order_release);
    workers_[w].version.notify_one();
  }

  void notify_all_workers() {
    std::lock_guard lock(pool_mu);
    for (std::size_t w = 0; w < workers_.size(); ++w) notify_worker(w);
  }

  void record_error(Status status) {
    {
      std::lock_guard lock(error_mu);
      if (first_error.is_ok()) first_error = std::move(status);
    }
    stop.store(true, std::memory_order_release);
    notify_all_workers();
  }

  static Status failure_status(const std::string& graph, std::uint64_t unit,
                               const Status& cause) {
    return Status(StatusCode::kUnavailable,
                  "session '" + graph + "' failed at unit " +
                      std::to_string(unit) + ": " + cause.message());
  }

  void fail_session(std::size_t s, std::uint64_t unit, Status status) {
    std::lock_guard lock(sessions_mu);
    if (const auto it = live.find(s); it != live.end()) {
      auto& sess = *it->second;
      if (sess.failed_status.is_ok()) {
        sess.failed_status = std::move(status);
        sess.failed_unit = unit;
      }
      cancel_session_locked(sess, kFailedByBoundary);
    } else if (s < reports.size() &&
               reports[s].outcome == SessionOutcome::kCompleted) {
      // Closed, but a boundary op was still in flight (a sink write
      // outlives the sink firing that queued it): amend the record. The
      // output is not trustworthy, whatever the graph did.
      auto& rep = reports[s];
      rep.outcome = SessionOutcome::kFailed;
      rep.failed_unit = unit;
      rep.status = failure_status(rep.graph, unit, status);
    }
  }

  /// Live or closed alike: the summary lives in the retained report.
  void record_io_error(std::size_t s, std::uint64_t unit, const Status& status,
                       bool will_retry) {
    std::lock_guard lock(sessions_mu);
    if (s >= reports.size()) return;
    auto& errors = reports[s].io_errors;
    errors.record(unit, status);
    if (will_retry) ++errors.retries;
  }

  /// First cancel wins; later calls are no-ops. Caller holds sessions_mu.
  void cancel_session_locked(LiveSession& sess, int code) {
    // First cancel's timestamp sticks: a later cancel_all/destructor must
    // not inflate the wall clock of a session that died long before.
    Clock::rep expected_ns = 0;
    sess.cancel_ns.compare_exchange_strong(
        expected_ns, Clock::now().time_since_epoch().count(),
        std::memory_order_acq_rel);
    int expected = kLive;
    if (sess.cancel_code.compare_exchange_strong(expected, code,
                                                 std::memory_order_acq_rel)) {
      // Wake everyone: parked workers must observe the flag to retire the
      // session's tasks (a targeted wakeup is not enough — migration
      // means any worker may hold one of its tasks).
      notify_all_workers();
    }
  }

  // A task may fire when it still has iterations left, every input
  // channel holds a token, and every output channel has space. Exact for
  // the owning worker; a thief's pre-steal call is an (atomically read,
  // possibly stale) heuristic that the post-migration rescan corrects.
  static bool ready(const TaskRun& r) {
    if (r.next_iteration.load(std::memory_order_relaxed) >= r.limit)
      return false;
    for (auto* ch : r.in) {
      if (ch->empty()) return false;
    }
    for (auto* ch : r.out) {
      if (ch->full()) return false;
    }
    return true;
  }

  /// Boundary condition: a gated task additionally needs its external
  /// input (or output space) to have arrived. Gates are thread-safe
  /// atomic reads by contract (see mpsoc::TaskGate), so thieves may poll
  /// them concurrently with the I/O threads that open them.
  static bool gate_open(const TaskRun& r) {
    return r.gate == nullptr || (*r.gate)();
  }

  /// Full firability — what thieves and come-steal hints must use: a
  /// channel-ready but gate-closed task is *not* runnable anywhere, so
  /// migrating it buys nothing.
  static bool runnable(const TaskRun& r) { return ready(r) && gate_open(r); }

  /// Wake the current owners of this task's channel peers. The seq_cst
  /// fence pairs with the fence in try_steal: either the notifier sees
  /// the post-migration owner, or the thief's first scan (after its own
  /// fence) sees the channel state the notifier published — so a
  /// migration can never swallow a wakeup.
  void notify_peers(const TaskRun& r, std::size_t self) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (const TaskRun* peer : r.peers) {
      const std::size_t ow = peer->owner.load(std::memory_order_relaxed);
      if (ow != self) notify_worker(ow);
    }
  }

  /// Session/global accounting for `n` firings leaving the system (fired
  /// or dropped). When this decrement is the session's last, no worker
  /// touches its tasks or channels again and the session is returned for
  /// the caller to close (outside the queue lock). Wakes the pool when
  /// the engine drains dry while wait() is pending.
  LiveSession* account_done(TaskRun& r, std::uint64_t n, std::size_t self) {
    LiveSession* closing = nullptr;
    auto& sess = *r.sess;
    if (sess.outstanding.fetch_sub(n, std::memory_order_acq_rel) == n) {
      if (sess.cancel_code.load(std::memory_order_acquire) == kLive) {
        sess.finish = Clock::now();
      }
      closing = &sess;
      if (EventRing* ring = ring_of(self)) {
        const std::uint64_t now = Telemetry::now_ns();
        emit(*ring, EventKind::kSessionEnd, r, now, now, sess.iterations,
             static_cast<std::uint64_t>(
                 sess.cancel_code.load(std::memory_order_relaxed)));
        m_sessions_completed->add(1);
      }
    }
    if (global_outstanding.fetch_sub(n, std::memory_order_acq_rel) == n &&
        draining.load(std::memory_order_acquire)) {
      notify_all_workers();
    }
    return closing;
  }

  /// Fire up to kFiringQuantum consecutive iterations of a task the calling
  /// worker popped from its runqueue (while popped the task is invisible
  /// to thieves, so the batch needs no lock; the channels' producer/
  /// consumer sides belong to this worker for the duration). Stops early
  /// on empty input, full output, closed gate, session cancel, or engine
  /// stop. The caller accounts the batch (one outstanding decrement,
  /// after every access to the task); the clock is read twice per batch,
  /// so busy_s measures the batch wall — body time plus the wait-free
  /// intra-batch channel hand-off (front/push/pop/acquire; no locks or
  /// waits inside the window). Peer wakeups are coalesced to the batch end PLUS an
  /// immediate notify whenever a firing unblocked a parked peer
  /// (empty->non-empty push or full->non-full pop), so slow bodies keep
  /// the pipeline overlapped while fast bodies still amortize; the
  /// eventcount protocol is safe at any coalescing granularity. Returns
  /// the number of firings.
  std::uint64_t fire_batch(TaskRun& r, std::size_t self, bool& fatal) {
    auto& sess = *r.sess;
    auto& firing = r.scratch;
    const std::size_t n_out = r.out.size();
    firing.outputs.resize(n_out);

    EventRing* ring = ring_of(self);

    const auto t0 = Clock::now();
    // Close out a pending boundary stall: the gap between first observing
    // "channels ready, gate closed" and this batch is I/O wait, kept out
    // of busy_s so compute attribution stays clean. The window is also
    // remembered for the frame journey: the first sampled unit this batch
    // fires is the unit the boundary wait delayed (an approximation — the
    // stall precedes the whole batch — documented in the README).
    double pending_gate_stall_s = 0.0;
    if (r.stall_since != Clock::time_point{}) {
      const double stall_s = seconds_between(r.stall_since, t0);
      r.io_stall_s += stall_s;
      ++r.io_stalls;
      r.stall_since = {};
      pending_gate_stall_s = stall_s > 0.0 ? stall_s : 0.0;
      if (ring != nullptr) {
        // Instant, not a slice: the stall window may span this worker's
        // earlier batches (stall_since can be set by a peer's scan), and
        // per-track slices must stay non-overlapping for Perfetto.
        const std::uint64_t stall_ns =
            stall_s > 0.0 ? static_cast<std::uint64_t>(stall_s * 1e9) : 0;
        emit(*ring, EventKind::kIoStall, r, to_ns(t0), to_ns(t0), stall_ns);
        m_io_stalls->add(1);  // exact; the ns histogram is drain-fed
      }
    }
    // Session wall clock runs from its own first firing, not engine
    // start — a multiplexed session that is starved early must not have
    // the wait billed to its throughput.
    std::call_once(sess.start_once, [&] {
      sess.start = t0;
      if (ring != nullptr) {
        emit(*ring, EventKind::kSessionStart, r, to_ns(t0), to_ns(t0));
      }
    });

    std::uint64_t fired = 0;
    // Mid-batch unblock detection: pushing into an empty channel or
    // popping from a full one may be exactly what a parked peer waits
    // for. Deferring that wakeup to batch end would serialize the
    // pipeline for slow/blocking bodies (the peer sleeps through up to
    // quantum x body-time with consumable tokens queued), so such a
    // transition notifies peers before the NEXT body runs — while the
    // common fast-body batch still coalesces to ~two notifies (channels
    // only transition while the peer is behind, and a final firing's
    // transition is covered by the unconditional batch-end notify).
    bool unblocked_peer = false;
    // Frame-journey sampling: in this runtime every edge carries exactly
    // one token per graph iteration and channels are FIFO, so iteration
    // index == unit index at every stage. Sampledness is therefore
    // locally computable everywhere — only timestamps travel through the
    // channel ledgers. Tracing off (period 0 / no telemetry) costs one
    // bool test per firing.
    const std::size_t period = unit_period;
    const bool tracing = period != 0 && ring != nullptr;
    while (fired < kFiringQuantum && ready(r) && gate_open(r)) {
      if (unblocked_peer) {
        notify_peers(r, self);
        unblocked_peer = false;
      }
      const std::uint64_t iter =
          r.next_iteration.load(std::memory_order_relaxed);
      firing.iteration = iter;
      firing.inputs.clear();
      for (auto* ch : r.in) firing.inputs.push_back(ch->front());
      const bool sampled = tracing && iter == r.ut_next_sample;
      std::uint64_t ut_origin = 0;  // pipeline-entry stamp of this unit
      std::uint64_t ut_ready = 0;   // when the unit became ready here
      std::uint64_t ut_t0 = 0;      // firing start (sampled only)
      if (sampled) {
        r.ut_next_sample = iter + period;
        for (auto* ch : r.in) {
          const UnitLedger& l = ch->front_ledger();
          ut_ready = std::max(ut_ready, l.enqueue_ns);
          if (l.origin_ns != 0 &&
              (ut_origin == 0 || l.origin_ns < ut_origin)) {
            ut_origin = l.origin_ns;
          }
        }
        ut_t0 = Telemetry::now_ns_fast();
        if (r.is_source) {
          // Sources: the origin hook supplies the ingress stamp (device
          // read completion at the I/O boundary); synthetic sources
          // start the unit's clock at firing start. Boundary buffering
          // shows up as gate wait + end-to-end latency, never as queue
          // wait (sources have no input channels to wait on).
          if (r.origin != nullptr) ut_origin = (*r.origin)(iter);
          if (ut_origin == 0 || ut_origin > ut_t0) ut_origin = ut_t0;
          ut_ready = ut_t0;
        } else {
          if (ut_ready == 0 || ut_ready > ut_t0) ut_ready = ut_t0;
          if (ut_origin == 0) ut_origin = ut_ready;
        }
      }
      for (std::size_t k = 0; k < n_out; ++k) {
        // Recycled buffer (or a fresh empty vector while the free ring
        // is still cold), handed to the body cleared: no stale bytes can
        // leak across iterations, and the warmed capacity makes an
        // in-place fill allocation-free.
        firing.outputs[k] = r.out[k]->acquire();
        firing.outputs[k].clear();
      }
      try {
        r.graph->task(r.id).body(firing);
      } catch (const std::exception& e) {
        record_error(Status(StatusCode::kInternal,
                            std::string("task '") +
                                r.graph->task(r.id).name +
                                "' threw: " + e.what()));
        fatal = true;
        break;
      } catch (...) {
        record_error(Status(StatusCode::kInternal,
                            std::string("task '") +
                                r.graph->task(r.id).name + "' threw"));
        fatal = true;
        break;
      }
      std::uint64_t ut_t1 = 0;
      std::uint64_t ut_service = 0;
      if (sampled) {
        ut_t1 = Telemetry::now_ns_fast();
        // A slope re-anchor between the two fast reads can step the
        // mapping backwards by a few hundred ns; clamp at zero (ut_ready
        // was already clamped to <= ut_t0 above).
        ut_service = ut_t1 > ut_t0 ? ut_t1 - ut_t0 : 0;
        ++r.ut_sampled;
        r.ut_queue_wait_ns += ut_t0 - ut_ready;
        r.ut_service_ns += ut_service;
        if (pending_gate_stall_s > 0.0) {
          r.ut_gate_wait_s += pending_gate_stall_s;
          pending_gate_stall_s = 0.0;
        }
      }
      for (std::size_t k = 0; k < n_out; ++k) {
        // Empty-check from the producer side is exact whenever the
        // consumer is parked — the only case the wakeup matters.
        if (r.out[k]->empty()) unblocked_peer = true;
        // Sampled units hand their origin + completion stamps to the
        // consumer through the slot ledger; the stamp publishes with the
        // push's tail release store.
        if (sampled) r.out[k]->stamp_next(UnitLedger{ut_origin, ut_t1});
        // Space was checked in ready(); this worker is the only
        // producer, so the push cannot fail.
        (void)r.out[k]->try_push(std::move(firing.outputs[k]));
      }
      for (auto* ch : r.in) {
        if (ch->full()) unblocked_peer = true;
        ch->pop();
      }
      if (sampled) {
        if (r.is_sink) {
          // The unit retires here: one kUnitComplete flow finish plus the
          // direct-fed latency metrics (direct so the histogram totals
          // agree exactly with sampled completions, per the CI check).
          const std::uint64_t latency =
              ut_t1 >= ut_origin ? ut_t1 - ut_origin : 0;
          emit(*ring, EventKind::kUnitComplete, r, ut_origin, ut_t1, iter,
               latency);
          if (sess.h_latency != nullptr) sess.h_latency->record(latency);
          h_unit_latency->record(latency);
          m_units_sampled->add(1);
          ++r.ut_completed;
          const double lat_s = static_cast<double>(latency) * 1e-9;
          r.ut_min_latency_s = std::min(r.ut_min_latency_s, lat_s);
          r.ut_max_latency_s = std::max(r.ut_max_latency_s, lat_s);
          if (r.ut_have_last) {
            const std::uint64_t d = latency >= r.ut_last_latency_ns
                                        ? latency - r.ut_last_latency_ns
                                        : r.ut_last_latency_ns - latency;
            r.ut_jitter_sum_s += static_cast<double>(d) * 1e-9;
            ++r.ut_jitter_n;
          }
          r.ut_last_latency_ns = latency;
          r.ut_have_last = true;
        } else {
          emit(*ring, EventKind::kUnitFlow, r, ut_ready, ut_t1, iter,
               (ut_service << 1) |
                   (r.is_source ? std::uint64_t{1} : std::uint64_t{0}));
        }
      }
      ++fired;
      r.next_iteration.store(iter + 1, std::memory_order_relaxed);
      // Iteration boundary: a cancel or engine abort must stop a
      // free-running task promptly — the caller retires/exits next.
      if (stop.load(std::memory_order_acquire) ||
          sess.cancel_code.load(std::memory_order_acquire) != kLive) {
        break;
      }
    }
    const auto t1 = Clock::now();

    if (fired > 0) {
      const double dt = seconds_between(t0, t1);
      r.busy_s += dt;
      r.firings += fired;
      if (ring != nullptr) {
        // Batch granularity: reuses the t0/t1 clock reads the hot loop
        // already pays. The enabled path is the ring stores plus ONE
        // counter add (firings must agree exactly with the post-mortem
        // reports); batch count and latency histogram are derived from
        // this event at drain time, off this thread.
        emit(*ring, EventKind::kFiringBatch, r, to_ns(t0), to_ns(t1), fired);
        m_firings->add(fired);
      }
      // Coalesced precise wakeup: only the workers owning this task's
      // channel peers can have been unblocked by the batch (tokens
      // arrived / space freed), and one notify covers every firing.
      notify_peers(r, self);
    }
    // Channels ready but the boundary I/O hasn't arrived: start the
    // stall clock; the I/O completion wakes this task's owner via its
    // task_waker.
    if (!fatal && ready(r) && !gate_open(r) &&
        r.stall_since == Clock::time_point{}) {
      r.stall_since = t1;
    }
    return fired;
  }

  /// Drop a cancelled task's remaining iterations and drain its input
  /// channels so a back-pressured upstream producer is never left parked
  /// against a dead consumer. Owner-worker only (consumer side of `in`).
  /// Returns the dropped iterations for the caller to account.
  std::uint64_t retire(TaskRun& r, std::size_t self) {
    const std::uint64_t drop =
        r.limit - r.next_iteration.load(std::memory_order_relaxed);
    r.next_iteration.store(r.limit, std::memory_order_relaxed);
    r.stall_since = {};  // a cancelled boundary wait is not an I/O stall
    for (auto* ch : r.in) ch->clear();
    notify_peers(r, self);
    return drop;
  }

  /// Pop the first actionable task out of this worker's runqueue: a task
  /// whose session was cancelled (to retire), else the first fully
  /// runnable one (to fire a batch). Popping — rather than firing in
  /// place — is what keeps the queue mutex off the firing path: the
  /// caller releases the lock, runs the batch, and pushes the task back,
  /// so thieves and admission only ever contend with this short scan.
  /// While scanning, tasks found channel-ready but gate-closed get their
  /// I/O stall clock started, and `surplus` is set when stealable work
  /// remains behind the pick (>= 1 queued runnable task — the pick
  /// itself counts as inflight toward the thief's leave-one rule) — the
  /// overloaded worker then hints an idle peer to come steal, because a
  /// worker with an empty queue owns no tasks and would otherwise never
  /// be woken to retry a failed steal. Caller holds me.mu.
  TaskRun* pick_task(Worker& me, bool& retire_pick, bool& surplus) {
    auto& q = me.queue;
    TaskRun* pick = nullptr;
    std::size_t keep = 0;
    std::size_t i = 0;
    for (; i < q.size() && pick == nullptr; ++i) {
      TaskRun* r = q[i];
      if (r->sess->cancel_code.load(std::memory_order_acquire) != kLive) {
        pick = r;
        retire_pick = true;
      } else if (ready(*r)) {
        if (gate_open(*r)) {
          pick = r;
          retire_pick = false;
        } else {
          if (r->stall_since == Clock::time_point{}) {
            r->stall_since = Clock::now();
          }
          q[keep++] = r;
        }
      } else {
        q[keep++] = r;
      }
    }
    std::size_t runnable_left = 0;
    for (; i < q.size(); ++i) {
      TaskRun* r = q[i];
      if (runnable(*r)) {
        ++runnable_left;
      } else if (ready(*r) && r->stall_since == Clock::time_point{}) {
        // Gate-closed behind the pick: the stall clock must start now,
        // not a batch later when the task rotates to the front.
        r->stall_since = Clock::now();
      }
      q[keep++] = r;
    }
    q.resize(keep);
    // A queued runnable task left behind is stealable surplus: the pick
    // we are about to pop counts as inflight toward the thief's
    // leave-one rule, so one queued runnable is already enough.
    surplus = pick != nullptr && runnable_left >= 1;
    return pick;
  }

  /// Bounded steal: migrate ONE whole task from the first lockable victim
  /// that holds at least two unfinished tasks — queued plus popped-for-a-
  /// batch (`inflight`) — and whose queue has at least one ready to
  /// fire. A popped task itself is never stealable (it is not in the
  /// queue), but it counts toward the leave-one rule, so a victim
  /// blocked inside a long body can still be relieved of its last
  /// queued-ready task. try_lock keeps thieves from piling onto a
  /// victim's pick scan. Returns true when a task was migrated.
  bool try_steal(std::size_t self) {
    const std::size_t n = workers_.size();
    if (n < 2) return false;
    for (std::size_t k = 1; k < n; ++k) {
      const std::size_t v = (self + k) % n;
      auto& victim = workers_[v];
      std::unique_lock lock(victim.mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      std::size_t live = victim.inflight;
      TaskRun* pick = nullptr;
      std::size_t pick_at = 0;
      for (std::size_t i = 0; i < victim.queue.size(); ++i) {
        TaskRun* r = victim.queue[i];
        if (r->sess->cancel_code.load(std::memory_order_acquire) != kLive) {
          continue;  // retirement stays with the current owner
        }
        ++live;
        if (pick == nullptr && runnable(*r)) {
          pick = r;
          pick_at = i;
        }
      }
      if (live < 2 || pick == nullptr) continue;
      victim.queue.erase(victim.queue.begin() +
                         static_cast<std::ptrdiff_t>(pick_at));
      pick->owner.store(self, std::memory_order_relaxed);
      ++pick->migrations;  // ordered by the victim-mu hand-off
      lock.unlock();
      {
        std::lock_guard own(workers_[self].mu);
        workers_[self].queue.push_back(pick);
      }
      // Pairs with the fence in notify_peers: after this fence, either a
      // concurrent notifier read owner == self (and will wake us), or our
      // next scan reads the channel state it published before notifying
      // the stale owner. Either way the token is not lost.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      total_steals.fetch_add(1, std::memory_order_relaxed);
      if (EventRing* ring = ring_of(self)) {
        const std::uint64_t now = Telemetry::now_ns();
        // The steal counter is drain-fed from this event.
        emit(*ring, EventKind::kSteal, *pick, now, now, v);
      }
      return true;
    }
    return false;
  }

  bool drained_dry() {
    return draining.load(std::memory_order_acquire) &&
           global_outstanding.load(std::memory_order_acquire) == 0;
  }

  void worker_main(std::size_t w) {
    // Hold at the start line until the pool is fully provisioned: no
    // body may fire before pinning succeeded (a pin failure must fail
    // start() *before* any side effect, not after).
    released.wait(false, std::memory_order_acquire);
    auto& me = workers_[w];
    std::size_t hint_rr = w;  // rotating target for come-steal hints
    unsigned depth_tick = 0;  // queue-depth histogram sampling (1 in 16)
    while (!stop.load(std::memory_order_acquire)) {
      // Eventcount: capture the version *before* scanning. A peer that
      // makes a task ready after this load bumps the version, so the
      // wait() below returns immediately instead of missing the wakeup.
      const std::uint32_t v = me.version.load(std::memory_order_acquire);
      bool progressed = false;
      // Drain loop: pop one actionable task, run its batch with the
      // queue mutex released, requeue at the tail (round-robin over the
      // queue), repeat until nothing is actionable.
      for (;;) {
        if (stop.load(std::memory_order_acquire)) break;
        bool retire_pick = false;
        bool surplus = false;
        TaskRun* r = nullptr;
        std::size_t depth = 0;
        {
          std::lock_guard lock(me.mu);
          r = pick_task(me, retire_pick, surplus);
          if (r != nullptr) ++me.inflight;
          depth = me.queue.size() + me.inflight;
        }
        if (r == nullptr) break;
        // Sampled (depth is a gauge-like distribution, not an exactness
        // metric): 2 contended fetch_adds per 16 picks instead of per pick.
        if ((++depth_tick & 15u) == 0 && ring_of(w) != nullptr) {
          h_queue_depth->record(depth);
        }
        if (surplus && workers_.size() > 1) {
          // Come-steal hint, sent BEFORE the batch: wake one (rotating)
          // peer so a parked idle worker can migrate the queued surplus
          // while this batch runs — crucial when the popped body blocks
          // (a hint after the batch would let the thief sleep through
          // the whole block). An idle worker owns no tasks, so no
          // firing would ever bump its version otherwise.
          hint_rr = (hint_rr + 1) % workers_.size();
          if (hint_rr == w) hint_rr = (hint_rr + 1) % workers_.size();
          notify_worker(hint_rr);
        }
        bool fatal = false;
        std::uint64_t done = 0;  // iterations this pick fired or dropped
        if (!retire_pick) done = fire_batch(*r, w, fatal);
        // A cancel seen at pick time or landed mid-batch: retire now (drop
        // + drain inputs) so back-pressured upstream peers unblock without
        // waiting for the next pass to rediscover the task.
        if (!fatal &&
            r->next_iteration.load(std::memory_order_relaxed) < r->limit &&
            r->sess->cancel_code.load(std::memory_order_acquire) != kLive) {
          done += retire(*r, w);
        }
        const bool finished =
            r->next_iteration.load(std::memory_order_relaxed) >= r->limit;
        progressed = progressed || done > 0;
        // The decrement comes last: after it, a finished task (and, on
        // the session's last decrement, the whole session) is the
        // closer's to free.
        LiveSession* closing = done > 0 ? account_done(*r, done, w) : nullptr;
        {
          std::lock_guard lock(me.mu);
          --me.inflight;
          if (!fatal && !finished) me.queue.push_back(r);
        }
        // Closing runs outside the queue mutex: on_session_complete may
        // re-enter the engine (submit/cancel) or take caller locks
        // without deadlocking against admission.
        if (closing != nullptr) close_session(*closing);
        if (fatal) return;
      }
      if (drained_dry()) return;
      if (progressed) continue;  // rescan before parking: state moved
      if (try_steal(w)) continue;
      if (stop.load(std::memory_order_acquire) || drained_dry()) return;
      // Nothing ready, nothing stealable, version unchanged since the
      // scan started: park indefinitely (zero CPU) until a peer bumps
      // our version.
      if (EventRing* ring = ring_of(w)) {
        const std::uint64_t park_t0 = Telemetry::now_ns();
        me.version.wait(v, std::memory_order_acquire);
        // The park counter is drain-fed from this event.
        ring->emit(TelemetryEvent{TelemetryEvent::pack0(EventKind::kPark, 0, 0),
                                  park_t0, Telemetry::now_ns()});
      } else {
        me.version.wait(v, std::memory_order_acquire);
      }
    }
  }

  /// The live, not yet cancelled session with the earliest deadline, or
  /// nullopt. Caller holds sessions_mu.
  std::optional<std::pair<std::size_t, Clock::time_point>>
  earliest_deadline_locked() const {
    std::optional<std::pair<std::size_t, Clock::time_point>> best;
    for (const auto& [s, sess] : live) {
      if (sess->deadline == Clock::time_point{} ||
          sess->cancel_code.load(std::memory_order_acquire) != kLive) {
        continue;
      }
      if (!best || sess->deadline < best->second) best.emplace(s, sess->deadline);
    }
    return best;
  }

  void deadline_main() {
    for (;;) {
      Clock::time_point next = Clock::time_point::max();
      {
        std::lock_guard lock(sessions_mu);
        if (const auto due = earliest_deadline_locked()) {
          next = due->second;
        }
      }
      {
        std::unique_lock lock(dl_mu);
        if (dl_stop) return;
        if (next == Clock::time_point::max()) {
          // No pending deadline; sleep until shutdown or a dynamic
          // submit registers one (dl_dirty).
          dl_cv.wait(lock, [&] { return dl_stop || dl_dirty; });
        } else {
          (void)dl_cv.wait_until(lock, next,
                                 [&] { return dl_stop || dl_dirty; });
        }
        if (dl_stop) return;
        dl_dirty = false;
      }
      const auto now = Clock::now();
      std::lock_guard lock(sessions_mu);
      for (const auto& [s, sess] : live) {
        if (sess->deadline != Clock::time_point{} && now >= sess->deadline) {
          cancel_session_locked(*sess, kDeadlineExpired);
        }
      }
    }
  }

  /// Stall watchdog, invoked by the telemetry collector once per drain
  /// period (Telemetry::poll_watchdogs; tests drive it manually when the
  /// collector is off). A live session whose outstanding-firings counter
  /// did not move for TelemetryOptions::watchdog_periods consecutive
  /// polls is flagged once per stall episode — re-armed by progress — and
  /// its per-task iteration / owner / gate / channel state dumped for
  /// diagnosis. The dumped channel occupancies and iteration counters are
  /// cross-thread snapshots, approximate by design: good enough to see
  /// WHICH task is wedged and whether its gate is closed.
  void watchdog_poll() {
    if (tel == nullptr) return;
    const int threshold = tel->options().watchdog_periods;
    if (threshold <= 0) return;
    const int quarantine = tel->options().watchdog_quarantine_periods;
    std::vector<std::string> dumps;
    std::vector<Engine::StallRecovery> recoveries;
    {
      std::lock_guard lock(sessions_mu);
      for (auto& [s, sp] : live) {
        auto& sess = *sp;
        if (sess.runs.empty()) continue;  // admitted but not wired yet
        const std::uint64_t out =
            sess.outstanding.load(std::memory_order_acquire);
        if (out == 0 ||
            sess.cancel_code.load(std::memory_order_acquire) != kLive) {
          sess.wd_last_outstanding = ~std::uint64_t{0};
          sess.wd_stagnant_periods = 0;
          sess.wd_flagged = false;
          continue;
        }
        if (out != sess.wd_last_outstanding) {
          sess.wd_last_outstanding = out;
          sess.wd_stagnant_periods = 0;
          sess.wd_flagged = false;  // progress re-arms the episode
          continue;
        }
        if (++sess.wd_stagnant_periods >= threshold && !sess.wd_flagged) {
          sess.wd_flagged = true;
          dumps.push_back(dump_session_locked(sess, out));
        }
        // Escalation from detect to recover: a flagged session that
        // stays wedged for `quarantine` ADDITIONAL periods is cancelled
        // and drained through the normal cancellation machinery, so its
        // back-pressured peers unblock and the engine keeps serving the
        // co-resident sessions. 0 = detect-only.
        if (quarantine > 0 && sess.wd_flagged &&
            sess.wd_stagnant_periods >= threshold + quarantine) {
          Engine::StallRecovery rec;
          rec.session = s;
          rec.graph = sess.graph->name();
          rec.stagnant_periods = sess.wd_stagnant_periods;
          rec.dump = dump_session_locked(sess, out);
          recoveries.push_back(std::move(rec));
          cancel_session_locked(sess, kQuarantinedByWatchdog);
        }
      }
    }
    if (dumps.empty() && recoveries.empty()) return;
    {
      std::lock_guard lock(stall_mu);
      for (auto& d : dumps) {
        if (stall_reports_.size() >= kMaxStallReports) {
          stall_reports_.erase(stall_reports_.begin());
        }
        stall_reports_.push_back(std::move(d));
      }
      for (auto& r : recoveries) {
        if (stall_recoveries_.size() >= kMaxStallReports) {
          stall_recoveries_.erase(stall_recoveries_.begin());
        }
        stall_recoveries_.push_back(std::move(r));
      }
    }
    if (m_watchdog_stalls != nullptr && !dumps.empty()) {
      m_watchdog_stalls->add(dumps.size());
    }
    if (m_watchdog_recoveries != nullptr && !recoveries.empty()) {
      m_watchdog_recoveries->add(recoveries.size());
    }
  }

  /// Caller holds sessions_mu. Gates are thread-safe reads by contract;
  /// queue size() from a non-owning thread is documented-approximate.
  std::string dump_session_locked(const LiveSession& sess,
                                  std::uint64_t outstanding) const {
    std::string out = "session " + std::to_string(sess.index) + " ('" +
                      sess.graph->name() + "') stalled: " +
                      std::to_string(outstanding) +
                      " firings outstanding, no progress for " +
                      std::to_string(sess.wd_stagnant_periods) +
                      " drain periods\n";
    for (const auto& rp : sess.runs) {
      const auto& r = *rp;
      out += "  task '" + r.graph->task(r.id).name + "': it=" +
             std::to_string(r.next_iteration.load(std::memory_order_relaxed)) +
             "/" + std::to_string(r.limit) + " worker=" +
             std::to_string(r.owner.load(std::memory_order_relaxed));
      out += r.gate == nullptr ? " gate=none"
                               : ((*r.gate)() ? " gate=open" : " gate=CLOSED");
      out += " in=[";
      for (std::size_t k = 0; k < r.in.size(); ++k) {
        if (k != 0) out += ",";
        out += std::to_string(r.in[k]->size()) + "/" +
               std::to_string(r.in[k]->capacity());
      }
      out += "] out=[";
      for (std::size_t k = 0; k < r.out.size(); ++k) {
        if (k != 0) out += ",";
        out += std::to_string(r.out[k]->size()) + "/" +
               std::to_string(r.out[k]->capacity());
      }
      out += "]\n";
    }
    return out;
  }

  Status validate(const mpsoc::TaskGraph& graph, const mpsoc::Mapping& mapping,
                  std::uint64_t iterations) {
    if (iterations == 0) {
      return Status(StatusCode::kInvalidArgument, "iterations must be >= 1");
    }
    if (graph.task_count() == 0) {
      return Status(StatusCode::kInvalidArgument, "empty graph");
    }
    if (mapping.size() != graph.task_count()) {
      return Status(StatusCode::kInvalidArgument,
                    "mapping size != task count");
    }
    if (!graph.is_acyclic()) {
      return Status(StatusCode::kInvalidArgument, "graph has a cycle");
    }
    for (mpsoc::TaskId t = 0; t < graph.task_count(); ++t) {
      if (!graph.task(t).has_body()) {
        return Status(StatusCode::kInvalidArgument,
                      "task '" + graph.task(t).name +
                          "' has no executable body");
      }
    }
    return Status::ok();
  }

  /// Build the session's TaskRuns, place each on its hint worker, and
  /// publish the work to the pool. Caller holds sessions_mu; the pool
  /// (workers_ + resolved_workers) must exist.
  void wire_session_locked(LiveSession& sess) {
    const std::size_t index = sess.index;
    const auto& graph = *sess.graph;
    const std::size_t tasks = graph.task_count();
    sess.runs.reserve(tasks);
    for (mpsoc::TaskId t = 0; t < tasks; ++t) {
      auto run = std::make_unique<TaskRun>();
      run->graph = &graph;
      run->id = t;
      run->sess = &sess;
      run->pe = sess.mapping[t];
      run->home = sess.mapping[t] % resolved_workers;
      run->owner.store(run->home, std::memory_order_relaxed);
      run->gate = graph.task(t).has_gate() ? &graph.task(t).gate : nullptr;
      run->origin =
          graph.task(t).has_origin() ? &graph.task(t).origin : nullptr;
      run->limit = sess.iterations;
      if (tel != nullptr) {
        run->name_id = tel->intern(graph.task(t).name);
      }
      for (const std::size_t e : graph.in_edges(t)) {
        run->in.push_back(sess.channels[e].get());
      }
      for (const std::size_t e : graph.out_edges(t)) {
        run->out.push_back(sess.channels[e].get());
      }
      run->is_source = run->in.empty();
      run->is_sink = run->out.empty();
      sess.runs.push_back(std::move(run));
    }
    if (tel != nullptr && unit_period != 0) {
      sess.h_latency = tel->metrics().histogram(
          options.telemetry_prefix + ".session" + std::to_string(index) +
          ".frame_latency_ns");
    }
    for (mpsoc::TaskId t = 0; t < tasks; ++t) {
      auto& run = *sess.runs[t];
      for (const std::size_t e : graph.in_edges(t)) {
        run.peers.push_back(sess.runs[graph.edges()[e].src].get());
      }
      for (const std::size_t e : graph.out_edges(t)) {
        run.peers.push_back(sess.runs[graph.edges()[e].dst].get());
      }
      std::sort(run.peers.begin(), run.peers.end());
      run.peers.erase(std::unique(run.peers.begin(), run.peers.end()),
                      run.peers.end());
      std::erase(run.peers, &run);  // never self-notify
    }
    // Capacity must be registered before any worker can see (and burn
    // down) the new tasks, or the drain accounting would go negative.
    global_outstanding.fetch_add(sess.iterations * tasks,
                                 std::memory_order_acq_rel);
    std::vector<bool> touched(resolved_workers, false);
    for (const auto& run : sess.runs) {
      auto& home = workers_[run->home];
      {
        std::lock_guard lock(home.mu);
        home.queue.push_back(run.get());
      }
      touched[run->home] = true;
    }
    for (std::size_t w = 0; w < resolved_workers; ++w) {
      if (touched[w]) notify_worker(w);
    }
  }

  Result<std::size_t> submit(const mpsoc::TaskGraph& graph,
                             mpsoc::Mapping mapping, std::uint64_t iterations,
                             SessionOptions session_options) {
    const Status valid = validate(graph, mapping, iterations);
    if (!valid.is_ok()) return Result<std::size_t>(valid);

    std::lock_guard lock(sessions_mu);
    const RunState st = state.load(std::memory_order_acquire);
    if (st == RunState::kJoining || st == RunState::kDone ||
        draining.load(std::memory_order_acquire)) {
      return Result<std::size_t>(StatusCode::kInternal,
                                 "engine is draining; submit rejected");
    }
    if (stop.load(std::memory_order_acquire)) {
      // A body threw and the pool already exited (state flips to kDone
      // only in wait()): admitting now would wire work no worker will
      // ever run — and leak the caller's admission slot forever.
      return Result<std::size_t>(StatusCode::kUnavailable,
                                 "engine stopped on error; submit rejected");
    }
    if (st == RunState::kStarting) {
      return Result<std::size_t>(StatusCode::kUnavailable,
                                 "engine is starting; retry submit");
    }

    const std::size_t index = reports.size();
    auto sess = std::make_unique<LiveSession>();
    sess->index = index;
    sess->graph = &graph;
    sess->mapping = std::move(mapping);
    sess->iterations = iterations;
    sess->options = std::move(session_options);
    // Per-slot unit ledgers ride along when frame-journey tracing can be
    // on for this engine (16 bytes per slot; read only on sampled units).
    const bool ledgers = options.telemetry != nullptr &&
                         options.telemetry->options().unit_sample_period != 0;
    for (const auto& edge : graph.edges()) {
      sess->channels.push_back(std::make_unique<SpscQueue<mpsoc::Payload>>(
          edge_capacity(edge, options.channel_capacity),
          /*recycle=*/true, ledgers));
    }
    sess->outstanding.store(iterations * graph.task_count(),
                            std::memory_order_relaxed);
    reports.emplace_back();
    session_count_.store(reports.size(), std::memory_order_relaxed);
    LiveSession& admitted = *live.emplace(index, std::move(sess)).first->second;

    if (st == RunState::kRunning) {
      // Dynamic admission: wire and publish immediately. sessions_mu
      // serializes this against wait()'s draining flip, so work admitted
      // here is always drained before wait() returns.
      admitted.admitted = Clock::now();
      if (admitted.options.timeout.count() > 0) {
        admitted.deadline = admitted.admitted + admitted.options.timeout;
        {
          std::lock_guard dl(dl_mu);
          dl_dirty = true;
        }
        dl_cv.notify_all();
      }
      wire_session_locked(admitted);
    }
    return index;
  }

  Result<std::function<void()>> task_waker(std::size_t session,
                                           mpsoc::TaskId task) {
    std::lock_guard lock(sessions_mu);
    if (session >= reports.size()) {
      return Result<std::function<void()>>(StatusCode::kInvalidArgument,
                                           "task_waker: no such session");
    }
    // A session may close before its caller asks (a fast session admitted
    // into a running engine): its waker is then a no-op, like any waker
    // called after close.
    const auto it = live.find(session);
    const std::size_t tasks = it != live.end() ? it->second->runs.size()
                                               : reports[session].tasks.size();
    if (tasks == 0) {
      return Result<std::function<void()>>(
          StatusCode::kUnavailable,
          "task_waker: session not wired (submit into a running engine)");
    }
    if (task >= tasks) {
      return Result<std::function<void()>>(StatusCode::kInvalidArgument,
                                           "task_waker: no such task");
    }
    return std::function<void()>([hub = hub, session, task] {
      std::lock_guard hub_lock(hub->mu);
      Impl* impl = hub->impl;
      if (impl == nullptr) return;  // engine died; straggling completion
      std::lock_guard lock(impl->sessions_mu);
      const auto it = impl->live.find(session);
      if (it == impl->live.end()) return;  // closed: nothing left to wake
      // Same fence protocol as notify_peers: either this call reads the
      // post-migration owner, or the thief's first rescan (after its own
      // fence) reads the gate state the I/O thread published before
      // calling us — a migration can never swallow an I/O wakeup.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::size_t ow =
          it->second->runs[task]->owner.load(std::memory_order_relaxed);
      std::lock_guard pool_lock(impl->pool_mu);
      if (ow < impl->workers_.size()) impl->notify_worker(ow);
    });
  }

  /// Pin worker w to CPU (w mod hardware threads). Returns the first
  /// failure instead of silently ignoring it.
  Status pin_pool() {
    if (!options.pin_workers) return Status::ok();
#if defined(__linux__)
    const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
    for (std::size_t w = 0; w < pool.size(); ++w) {
      const std::size_t cpu = (options.pin_cpu_offset + w) % ncpu;
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(cpu), &set);
      const int rc =
          pthread_setaffinity_np(pool[w].native_handle(), sizeof(set), &set);
      if (rc != 0) {
        return Status(StatusCode::kInternal,
                      "pthread_setaffinity_np(worker " + std::to_string(w) +
                          " -> cpu " + std::to_string(cpu) +
                          ") failed: " + std::strerror(rc));
      }
    }
    return Status::ok();
#else
    return Status(StatusCode::kUnavailable,
                  "pin_workers is not supported on this platform");
#endif
  }

  Status start() {
    // kStarting keeps a concurrent wait() from claiming the join while
    // the pool vector is still being built; kRunning is published (and
    // kStarting waiters notified) only once every worker is spawned.
    RunState expected = RunState::kIdle;
    if (!state.compare_exchange_strong(expected, RunState::kStarting)) {
      return Status(StatusCode::kInternal, "engine already started");
    }
    {
      std::lock_guard lock(sessions_mu);
      // Resolve the pool size: explicit; or one worker per referenced PE;
      // or — starting empty to serve dynamic submits — one per hardware
      // thread. The pool size is a *physical* resource decision; logical
      // PE ids are folded into it as placement hints.
      std::size_t workers = options.workers;
      if (workers == 0) {
        std::size_t max_pe = 0;
        bool any = false;
        for (const auto& [s, sess] : live) {
          for (const std::size_t pe : sess->mapping) {
            max_pe = std::max(max_pe, pe);
            any = true;
          }
        }
        workers = any ? max_pe + 1
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
      }
      resolved_workers = workers;
      {
        std::lock_guard pl(pool_mu);
        workers_ = std::vector<Worker>(workers);
      }
      init_telemetry_locked();
      run_start = Clock::now();
      for (auto& [s, sess] : live) {
        sess->admitted = run_start;
        if (sess->options.timeout.count() > 0) {
          sess->deadline = run_start + sess->options.timeout;
        }
        wire_session_locked(*sess);
      }
    }

    pool.reserve(resolved_workers);
    for (std::size_t w = 0; w < resolved_workers; ++w) {
      pool.emplace_back([this, w] { worker_main(w); });
    }
    const Status pinned = pin_pool();
    if (!pinned.is_ok()) {
      // Surface the failure instead of running unpinned: the workers are
      // still parked at the start line, so no body has fired — tear the
      // pool back down and report through start() and any later wait().
      stop.store(true, std::memory_order_release);
      released.store(true, std::memory_order_release);
      released.notify_all();
      for (auto& th : pool) th.join();
      pool.clear();
      {
        std::lock_guard lock(error_mu);
        if (first_error.is_ok()) first_error = pinned;
      }
      state.store(RunState::kDone);
      state.notify_all();
      return pinned;
    }
    released.store(true, std::memory_order_release);
    released.notify_all();
    // Always spawn the monitor: deadlines may arrive with any later
    // dynamic submit, not only with pre-start sessions.
    deadline_thread = std::thread([this] { deadline_main(); });
    // The stall watchdog rides the telemetry collector's drain cadence;
    // registered only while a pool exists to be watched. Removed in
    // ~Impl, where remove_watchdog's fence guarantees no in-flight poll
    // outlives this Impl.
    if (tel != nullptr && tel->options().watchdog_periods > 0) {
      watchdog_id = tel->add_watchdog([this] { watchdog_poll(); });
    }
    state.store(RunState::kRunning, std::memory_order_release);
    state.notify_all();
    return Status::ok();
  }

  Status wait() {
    // Claim the join exclusively: concurrent wait() calls must not
    // double-join the pool. A loser parks on the state word until the
    // winner publishes kDone; a wait() that lands mid-start() parks on
    // kStarting, then retries the claim. (As with standard library
    // types, destroying the engine while another thread is still inside
    // a member function is undefined — the destructor itself calls
    // wait() only to reap its own pool.)
    for (;;) {
      RunState expected = RunState::kRunning;
      if (state.compare_exchange_strong(expected, RunState::kJoining,
                                        std::memory_order_acq_rel)) {
        break;  // we are the joiner
      }
      if (expected == RunState::kIdle) {
        return Status(StatusCode::kInternal, "engine not started");
      }
      if (expected == RunState::kStarting) {
        state.wait(RunState::kStarting, std::memory_order_acquire);
        continue;  // start() finished (or failed); retry the claim
      }
      while (state.load(std::memory_order_acquire) != RunState::kDone) {
        state.wait(RunState::kJoining, std::memory_order_acquire);
      }
      std::lock_guard lock(error_mu);
      return first_error;
    }

    // Close admission, then let the pool drain what was admitted. The
    // sessions_mu section orders the flag against in-flight submits: a
    // submit that won the lock first has already published its work, so
    // the workers below will not exit until it completes too.
    {
      std::lock_guard lock(sessions_mu);
      draining.store(true, std::memory_order_release);
    }
    notify_all_workers();
    for (auto& th : pool) th.join();
    pool.clear();
    {
      std::lock_guard lock(dl_mu);
      dl_stop = true;
    }
    dl_cv.notify_all();
    if (deadline_thread.joinable()) deadline_thread.join();

    // Sessions that never drained (aborted by a body error) close here,
    // through the same path the workers use.
    std::vector<LiveSession*> unfinished;
    {
      std::lock_guard lock(sessions_mu);
      for (auto& [s, sess] : live) unfinished.push_back(sess.get());
    }
    for (LiveSession* sess : unfinished) close_session(*sess);
    // Capture the result *before* publishing kDone so the winner never
    // takes error_mu after a loser can already have returned. As with
    // any C++ type, destroying the engine still requires every wait()
    // call (winner and losers alike) to have returned first — the final
    // notify_all below is itself an access to the state word.
    Status result;
    {
      std::lock_guard lock(error_mu);
      result = first_error;
    }
    state.store(RunState::kDone, std::memory_order_release);
    state.notify_all();
    return result;
  }

  /// The one close path: fold the session's task and channel stats into
  /// its report, unlink it from the live set, free its channels, free
  /// rings and TaskRuns, and only then call on_session_complete. Runs on
  /// the worker whose decrement took `outstanding` to zero (no worker
  /// touches the session after that), or in wait() once the pool is
  /// joined for a session that never got there. Never under a queue lock.
  void close_session(LiveSession& sess) {
    SessionReport rep;
    rep.graph = sess.graph->name();
    rep.iterations = sess.iterations;
    rep.channel_capacity = options.channel_capacity;
    rep.tasks.assign(sess.graph->task_count(), TaskStats{});
    for (const auto& ch : sess.channels) {
      rep.edge_peak_occupancy.push_back(ch->max_occupancy());
      rep.max_channel_occupancy =
          std::max(rep.max_channel_occupancy, ch->max_occupancy());
      rep.payloads_recycled += ch->recycle_hits();
    }
    for (const auto& run : sess.runs) {
      auto& stats = rep.tasks[run->id];
      stats.name = run->graph->task(run->id).name;
      stats.pe = run->pe;
      stats.home_worker = run->home;
      stats.worker = run->owner.load(std::memory_order_relaxed);
      stats.migrations = run->migrations;
      stats.firings = run->firings;
      stats.busy_s = run->busy_s;
      stats.io_stalls = run->io_stalls;
      stats.io_stall_s = run->io_stall_s;
      rep.completed_firings += run->firings;
      rep.task_migrations += run->migrations;
      rep.io_stall_s += run->io_stall_s;
    }
    auto& ut = rep.unit_trace;
    ut.sample_period = tel != nullptr ? unit_period : 0;
    if (ut.sample_period != 0) {
      ut.stages.assign(sess.graph->task_count(), StageUnitTrace{});
      double jitter_sum = 0.0;
      std::uint64_t jitter_n = 0;
      for (const auto& run : sess.runs) {
        auto& st = ut.stages[run->id];
        st.name = run->graph->task(run->id).name;
        st.sampled = run->ut_sampled;
        st.queue_wait_s = static_cast<double>(run->ut_queue_wait_ns) * 1e-9;
        st.gate_wait_s = run->ut_gate_wait_s;
        st.service_s = static_cast<double>(run->ut_service_ns) * 1e-9;
        if (run->ut_completed > 0) {
          ut.sampled_completed += run->ut_completed;
          ut.min_latency_s = std::isnan(ut.min_latency_s)
                                 ? run->ut_min_latency_s
                                 : std::min(ut.min_latency_s,
                                            run->ut_min_latency_s);
          ut.max_latency_s = std::isnan(ut.max_latency_s)
                                 ? run->ut_max_latency_s
                                 : std::max(ut.max_latency_s,
                                            run->ut_max_latency_s);
          jitter_sum += run->ut_jitter_sum_s;
          jitter_n += run->ut_jitter_n;
        }
      }
      if (jitter_n > 0) {
        ut.jitter_s = jitter_sum / static_cast<double>(jitter_n);
      }
      if (sess.h_latency != nullptr) ut.latency = sess.h_latency->snapshot();
    }
    const std::uint64_t total = sess.iterations * sess.graph->task_count();
    std::unique_ptr<LiveSession> owned;
    {
      // The outcome is settled under the same lock that fail_session and
      // cancel take, so a failure lands either here or as an amendment.
      std::lock_guard lock(sessions_mu);
      const int code = sess.cancel_code.load(std::memory_order_acquire);
      rep.failed_unit = sess.failed_unit;
      if (code == kFailedByBoundary) {
        // The failure is authoritative even if the graph drained to
        // completion on empty payloads — the output is not trustworthy.
        rep.outcome = SessionOutcome::kFailed;
        rep.status =
            failure_status(rep.graph, sess.failed_unit, sess.failed_status);
      } else if (code == kQuarantinedByWatchdog) {
        rep.outcome = SessionOutcome::kQuarantined;
        rep.status = Status(
            StatusCode::kUnavailable,
            "session '" + rep.graph +
                "' quarantined by the stall watchdog after " +
                std::to_string(rep.completed_firings) + " of " +
                std::to_string(total) + " firings");
      } else if (rep.completed_firings == total) {
        rep.outcome = SessionOutcome::kCompleted;
        rep.status = Status::ok();
      } else if (code == kCancelledByUser || code == kDeadlineExpired) {
        rep.outcome = code == kDeadlineExpired
                          ? SessionOutcome::kDeadlineExceeded
                          : SessionOutcome::kCancelled;
        rep.status = Status(
            code == kDeadlineExpired ? StatusCode::kDeadlineExceeded
                                     : StatusCode::kCancelled,
            "session '" + rep.graph + "' ended after " +
                std::to_string(rep.completed_firings) + " of " +
                std::to_string(total) + " firings");
      } else {
        rep.outcome = SessionOutcome::kAborted;
        rep.status = Status(StatusCode::kUnavailable,
                            "engine stopped before session completed");
      }
      const auto admitted =
          sess.admitted == Clock::time_point{} ? run_start : sess.admitted;
      const auto from =
          sess.start == Clock::time_point{} ? admitted : sess.start;
      Clock::time_point until = sess.finish;
      if (until == Clock::time_point{}) {
        const auto cancel_ns = sess.cancel_ns.load(std::memory_order_relaxed);
        until = cancel_ns != 0 ? Clock::time_point(Clock::duration(cancel_ns))
                               : Clock::now();
      }
      rep.wall_s = std::max(0.0, seconds_between(from, until));
      SessionReport& rec = reports[sess.index];
      rep.io_errors = std::move(rec.io_errors);
      rec = std::move(rep);
      const auto it = live.find(sess.index);
      owned = std::move(it->second);
      live.erase(it);
    }
    const std::size_t index = owned->index;
    owned.reset();  // outside the lock: frees channels, rings, TaskRuns
    if (options.on_session_complete) options.on_session_complete(index);
  }
};

Engine::Engine(EngineOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
}

Engine::~Engine() {
  if (!impl_) return;
  const auto st = impl_->state.load(std::memory_order_acquire);
  if (st == Impl::RunState::kRunning || st == Impl::RunState::kJoining) {
    cancel_all();
    (void)wait();
  }
}

Result<std::size_t> Engine::submit(const mpsoc::TaskGraph& graph,
                                   mpsoc::Mapping mapping,
                                   std::uint64_t iterations,
                                   SessionOptions session_options) {
  return impl_->submit(graph, std::move(mapping), iterations,
                       std::move(session_options));
}

Result<std::function<void()>> Engine::task_waker(std::size_t session,
                                                 mpsoc::TaskId task) {
  return impl_->task_waker(session, task);
}

Status Engine::start() { return impl_->start(); }

Status Engine::wait() { return impl_->wait(); }

Status Engine::run() {
  const Status started = impl_->start();
  if (!started.is_ok()) return started;
  return impl_->wait();
}

void Engine::cancel(std::size_t session) {
  std::lock_guard lock(impl_->sessions_mu);
  const auto it = impl_->live.find(session);
  if (it != impl_->live.end()) {
    impl_->cancel_session_locked(*it->second, kCancelledByUser);
  }
}

void Engine::cancel_all() {
  std::lock_guard lock(impl_->sessions_mu);
  for (auto& [s, sess] : impl_->live) {
    impl_->cancel_session_locked(*sess, kCancelledByUser);
  }
}

bool Engine::running() const noexcept {
  return impl_->state.load(std::memory_order_acquire) ==
         Impl::RunState::kRunning;
}

std::size_t Engine::session_count() const noexcept {
  return impl_->session_count_.load(std::memory_order_relaxed);
}

const SessionReport& Engine::report(std::size_t session) const {
  std::lock_guard lock(impl_->sessions_mu);
  return impl_->reports.at(session);
}

std::size_t Engine::degrade_live_sessions() {
  std::vector<std::pair<std::function<void(std::size_t)>, std::size_t>> hooks;
  {
    std::lock_guard lock(impl_->sessions_mu);
    for (auto& [s, sess] : impl_->live) {
      if (sess->degraded || !sess->options.on_degrade) continue;
      sess->degraded = true;
      hooks.emplace_back(sess->options.on_degrade, s);
    }
  }
  for (auto& [hook, s] : hooks) hook(s);
  return hooks.size();
}

std::optional<std::pair<std::size_t, std::chrono::steady_clock::time_point>>
Engine::earliest_live_deadline() const {
  std::lock_guard lock(impl_->sessions_mu);
  return impl_->earliest_deadline_locked();
}

std::size_t Engine::worker_count() const noexcept {
  return impl_->resolved_workers != 0 ? impl_->resolved_workers
                                      : impl_->options.workers;
}

std::uint64_t Engine::steal_count() const noexcept {
  return impl_->total_steals.load(std::memory_order_relaxed);
}

std::vector<std::string> Engine::stall_reports() const {
  std::lock_guard lock(impl_->stall_mu);
  return impl_->stall_reports_;
}

std::vector<Engine::StallRecovery> Engine::stall_recoveries() const {
  std::lock_guard lock(impl_->stall_mu);
  return impl_->stall_recoveries_;
}

void Engine::fail_session(std::size_t session, std::uint64_t unit,
                          common::Status status) {
  impl_->fail_session(session, unit, std::move(status));
}

void Engine::record_io_error(std::size_t session, std::uint64_t unit,
                             const common::Status& status, bool will_retry) {
  impl_->record_io_error(session, unit, status, will_retry);
}

Result<SessionReport> run_pipeline(const mpsoc::TaskGraph& graph,
                                   const mpsoc::Mapping& mapping,
                                   std::uint64_t iterations,
                                   const EngineOptions& options) {
  Engine engine(options);
  auto added = engine.submit(graph, mapping, iterations);
  if (!added.is_ok()) return Result<SessionReport>(added.status());
  const Status status = engine.run();
  if (!status.is_ok()) return Result<SessionReport>(status);
  return engine.report(added.value());
}

}  // namespace mmsoc::runtime
