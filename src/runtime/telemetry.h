// Always-on runtime telemetry: per-thread event rings drained by a background
// collector into (1) a Chrome-trace-event / Perfetto JSON timeline and (2) a
// MetricsRegistry of counters / gauges / log-bucketed histograms.
//
// Hot-path contract:
//  - Producers (workers, I/O threads) never block and never allocate. Emitting
//    an event is five relaxed atomic stores plus two ring-counter updates.
//  - Derived metrics (batch/park/steal counters, latency histograms) are fed
//    by the collector from the drained event stream via per-track drain
//    callbacks — the producing thread pays for the ring write only. Counters
//    that must agree exactly with post-mortem reports (firings, sessions)
//    are the exception: producers update those directly, one relaxed
//    fetch_add per batch, because drain-fed values undercount by dropped()
//    when a ring overflows.
//  - The ring is drop-oldest: when a producer outruns the collector the oldest
//    unread events are overwritten and counted in dropped(); the producer is
//    never throttled.
//  - With telemetry disabled (EngineOptions::telemetry == nullptr) the cost is
//    one pointer null-check per batch.
//
// Ring protocol (extends the queue.h Lamport SPSC design): head_ and tail_ are
// 64-bit monotonic sequence numbers (slot = seq & mask; monotonicity kills
// ABA). The producer owns tail_; when the ring is full it first CASes head_
// forward by kDropChunk to claim-drop the oldest slots, so only the producer
// ever *advances past unread data*, and then overwrites the slot (the chunk
// amortizes the CAS: a saturated producer emits on the plain-store path for
// the next kDropChunk-1 events). The consumer copies a slot
// and then CASes head_ to publish the read; if the CAS fails the producer
// lapped it mid-copy and the (possibly torn) copy is discarded. Slot words are
// relaxed std::atomic<uint64_t> so a torn copy is well-defined and TSan-clean.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"

namespace mmsoc {

// Task / job / session names travel as interned ids in the event's name_id
// field; arg0/arg1 are kind-specific.
enum class EventKind : std::uint8_t {
  kNone = 0,
  kFiringBatch = 1,   // slice; arg0 = firings completed in the batch
  kSteal = 2,         // instant; arg0 = victim worker index
  kPark = 3,          // slice; worker slept between begin and end
  kIoStall = 4,       // instant; arg0 = stall duration in ns
  kIoJob = 5,         // slice; one I/O job execution
  kSessionStart = 6,  // instant; session id in word0
  kSessionEnd = 7,    // instant; arg0 = completed firings, arg1 = outcome code
  kAdmit = 8,         // instant; admission accepted (arg0 = shard index)
  kReject = 9,        // instant; admission rejected (arg0 = shard index)
  // Frame-journey flow events (sampled units only; see TelemetryOptions::
  // unit_sample_period). begin_ns = when the unit became ready for the
  // stage (max input enqueue time, or origin for sources), end_ns = when
  // the stage's firing completed. arg0 = unit index, arg1 = service time
  // in ns shifted left 1 | 1 if this is a source stage (flow start).
  kUnitFlow = 10,
  // Sampled unit retired at a sink stage. begin_ns = origin stamp,
  // end_ns = completion; arg0 = unit index, arg1 = end-to-end latency ns.
  kUnitComplete = 11,
};

// Fixed-size 40-byte binary event: 5 x uint64 words.
//   word0 = kind (bits 0..7) | name_id (bits 8..23) | session id (bits 32..63)
//   word1 = begin_ns, word2 = end_ns (steady_clock nanoseconds; begin==end for instants)
//   word3 = arg0, word4 = arg1 (kind-specific, see EventKind)
struct TelemetryEvent {
  std::uint64_t word0 = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;

  static std::uint64_t pack0(EventKind kind, std::uint16_t name_id, std::uint32_t session) {
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(name_id) << 8) |
           (static_cast<std::uint64_t>(session) << 32);
  }
  EventKind kind() const { return static_cast<EventKind>(word0 & 0xffu); }
  std::uint16_t name_id() const { return static_cast<std::uint16_t>((word0 >> 8) & 0xffffu); }
  std::uint32_t session() const { return static_cast<std::uint32_t>(word0 >> 32); }
};

// Single-producer / single-consumer drop-oldest ring of TelemetryEvents.
// Producer = the instrumented thread, consumer = the collector (or flush()).
class EventRing {
 public:
  static constexpr std::size_t kWords = 5;
  // Claim-drop granularity when full: the producer frees this many oldest
  // slots with one CAS, so a saturated ring costs the CAS only once per
  // kDropChunk emits. Rings smaller than the chunk drop their whole
  // contents.
  static constexpr std::size_t kDropChunk = 64;

  explicit EventRing(std::size_t capacity_events = 4096);

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  // Producer side. Wait-free; drops the oldest unread events (in chunks of
  // kDropChunk, counted in dropped()) when full.
  void emit(const TelemetryEvent& ev);

  // Consumer side. Returns false when the ring is (transiently) empty.
  bool try_pop(TelemetryEvent& out);

  std::size_t capacity() const { return capacity_; }
  // Events overwritten before the collector read them.
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  // Events currently buffered (approximate under concurrency).
  std::size_t size() const;

 private:
  const std::size_t capacity_;  // power of two
  const std::size_t mask_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;  // capacity_ * kWords
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next unread seq
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next write seq
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

struct TelemetryOptions {
  std::size_t ring_capacity = 4096;   // events per thread track
  std::size_t max_trace_events = 1 << 20;  // retained timeline events
  // Collector drain period in milliseconds; 0 disables the background thread
  // (events are drained on flush()/trace_json() only — used by tests).
  int collect_period_ms = 10;
  // Frame-journey sampling: every Nth unit (iteration) of every session is
  // stamped at its source, carried through the channel ledgers, and traced
  // end to end (kUnitFlow/kUnitComplete events, per-stage wait/service
  // accounting, per-session latency histograms). 1 traces every unit, 0
  // disables unit tracing entirely. The default 1-in-16 is what the
  // end-to-end benchmark's traced runs use; their cost against untraced
  // runs is its trace.overhead_share metric (benchmark/README.md).
  std::size_t unit_sample_period = 16;
  // Stall watchdog: a session that completes zero firings across this many
  // consecutive collector drain periods is flagged and its per-task
  // gate/channel/queue state dumped (see Engine stall reports). 0 disables
  // the watchdog.
  int watchdog_periods = 8;
  // Watchdog escalation (detect -> recover): a flagged session still
  // making zero progress after this many ADDITIONAL drain periods is
  // quarantined — cancelled and drained through the normal cancellation
  // machinery (SessionOutcome::kQuarantined, status kUnavailable) and
  // recorded as an Engine::StallRecovery — so one wedged device never
  // wedges the engine. 0 = detect-only (flag + dump, never cancel).
  int watchdog_quarantine_periods = 0;
};

// Owns the per-thread rings, the string-intern table, the metrics registry,
// and the background collector. One Telemetry instance can serve several
// engines / IO contexts (the media server shares one across shards).
class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions opts = {});
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // Invoked by the collector for every event drained from a track's ring —
  // this is how derived metrics (batch/park counters, latency histograms)
  // are fed *off* the producing thread's hot path. Runs on the collector /
  // flush() caller with the Telemetry mutex held: must be non-blocking,
  // thread-safe, and must not call back into this Telemetry. Because the
  // ring is drop-oldest, drain-fed metrics undercount under overflow (by
  // exactly dropped()); producers update any counter needing exactness
  // directly instead.
  using DrainFn = std::function<void(const TelemetryEvent&)>;

  // Registers a named thread track ("engine0.worker1", "io.thread0") and
  // returns its ring. The ring pointer is stable for the Telemetry lifetime.
  // Re-registering an existing name returns the same ring and *replaces* its
  // drain callback (a fresh engine reusing a prior engine's tracks rebinds
  // them to its own metric handles). Thread-safe; meant to be called at
  // thread / engine setup, not per event.
  EventRing* register_track(const std::string& name, DrainFn on_drain = {});

  // Clears a track's drain callback (and drains the ring through it one last
  // time). An instrumented component whose lifetime ends before the sink's
  // MUST call this for each of its tracks before dying — the callback
  // captures component state.
  void reset_drain_callback(EventRing* ring);

  // Stall-watchdog hooks: the collector thread invokes every registered
  // callback once per drain period, after flush(), with NO Telemetry lock
  // held except the watchdog registry's own mutex (held across the
  // invocation so remove_watchdog() can safely fence out in-flight calls).
  // Callbacks must not call add_/remove_watchdog or poll_watchdogs, and
  // must be quick — they share the collector's cadence with draining.
  // With collect_period_ms == 0 there is no collector; tests (or an
  // embedder's own timer) call poll_watchdogs() directly.
  using WatchdogFn = std::function<void()>;
  std::uint64_t add_watchdog(WatchdogFn fn);
  // Blocks until any in-flight invocation of the callback completes; after
  // return the callback will never run again (the registrant may die).
  void remove_watchdog(std::uint64_t id);
  // Invoke every registered watchdog once (what the collector does each
  // period). Public so no-collector configurations can drive it manually.
  void poll_watchdogs();

  // The options this instance was built with (engines read
  // unit_sample_period / watchdog_periods from here).
  [[nodiscard]] const TelemetryOptions& options() const;

  // Interns a string (task / job names) into a 16-bit id usable in events.
  // Id 0 is reserved for "" / unnamed. Thread-safe.
  std::uint16_t intern(const std::string& name);
  std::string name_of(std::uint16_t id) const;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // Drains every ring into the retained timeline now (also runs periodically
  // on the collector thread when collect_period_ms > 0).
  void flush();

  // flush() + serialize the retained timeline as Chrome trace-event JSON
  // ({"traceEvents":[...]}, loadable in Perfetto / chrome://tracing).
  std::string trace_json();

  // trace_json() written to a file; returns false on I/O error.
  bool write_trace(const std::string& path);

  // Total events lost to ring overwrite across all tracks.
  std::uint64_t dropped() const;
  // Events currently retained in the timeline.
  std::size_t retained_events() const;

  // steady_clock nanoseconds, same epoch the engine's batch clock reads use.
  static std::uint64_t now_ns();

  // Same ns epoch as now_ns() at a fraction of the cost: one invariant-TSC
  // read plus a multiply against a slope the collector re-anchors every
  // drain period (conversion error stays bounded by the calibration pair's
  // read jitter, a few hundred ns, independent of uptime). Falls back to
  // now_ns() where no invariant TSC is available. A re-anchor between two
  // calls can step the mapping backwards by that same sub-microsecond
  // bound, so callers differencing two reads must clamp at zero. Used on
  // the frame-journey sampled path, where two vDSO clock reads per sampled
  // firing would dominate the tracing budget.
  static std::uint64_t now_ns_fast();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  MetricsRegistry metrics_;
};

}  // namespace mmsoc
