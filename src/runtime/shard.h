// Sharded multi-engine front-end: scale-out across Engine instances.
//
// One Engine multiplexes sessions over one worker pool; under "heavy
// traffic" (thousands of submitted transcodes — the Nexperia set-top
// scenario of dozens of concurrent A/V sessions, scaled up) a single
// pool oversubscribes and every session's latency collapses together.
// ShardedEngine spreads sessions across N independent Engine shards
// (least-loaded placement) and puts an admission controller in front:
// each shard accepts a bounded number of in-flight sessions, and once
// every shard is saturated further submits are *rejected with a reason*
// (kResourceExhausted) instead of queued — graceful degradation, the
// overload policy platform papers insist on. Rejected work never costs a
// worker thread; accepted work keeps its latency budget.
//
// Admission is *dynamic*: start() launches every shard immediately and
// submit() keeps admitting into the running shards until wait() closes
// the front door. A shard's in-flight count is decremented the moment a
// session stops consuming capacity (last firing completed, or fully
// retired after a cancel) via the engine's completion callback, so
// least-loaded placement and the admission bound track reality under
// long-running mixes — a slot freed by a finished transcode is
// immediately available to the next submit. The front-end keeps no
// session registry of its own: the overload policy asks each shard's
// engine for its live sessions' degrade hooks and earliest deadline.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/engine.h"

namespace mmsoc::runtime {

/// What the admission controller does when capacity runs out, beyond
/// rejecting: the graceful-degradation half of the overload story. The
/// default policy is inert (reject-only), preserving the original
/// admission semantics.
struct OverloadPolicy {
  /// Early-warning watermark: once aggregate in-flight sessions reach
  /// this fraction of total capacity (shards * max_sessions_per_shard),
  /// submit() fires every live session's SessionOptions::on_degrade
  /// (at most once per session) before placing the new one — sessions
  /// shrink their footprint *before* the front door slams. Degrade also
  /// fires on an actual capacity rejection regardless of the watermark.
  /// > 1.0 disables the early warning.
  double degrade_watermark = 2.0;
  /// Deadline-aware load shedding: when every shard is at its admission
  /// bound, cancel the live deadline-bearing session *closest to missing
  /// its deadline* (it has the least chance of finishing useful work),
  /// wait up to shed_grace for its slot to come back, and admit the new
  /// session in its place. Off = reject, the legacy behavior.
  bool shed_earliest_deadline = false;
  /// How long submit() waits for a shed session to retire and return
  /// its admission slot before rejecting after all. Cancellation drains
  /// in-flight firings, so retirement is quick but not instant.
  std::chrono::nanoseconds shed_grace{5'000'000};  // 5 ms
};

struct ShardedEngineOptions {
  /// Independent Engine instances (think: one per socket / process).
  std::size_t shards = 2;
  /// Admission bound: in-flight sessions a single shard will accept.
  std::size_t max_sessions_per_shard = 64;
  /// Worker pool + channel configuration applied to every shard. The
  /// per-engine on_session_complete hook is owned by the front-end (it
  /// drives the load accounting) and must be left empty here. When
  /// engine.telemetry is set, the one sink is shared by every shard:
  /// shard i's tracks/metrics get the prefix
  /// engine.telemetry_prefix + i ("shard0.worker1", "shard1.firings"),
  /// and the front-end itself registers an "<prefix>.admission" track
  /// plus "<prefix>.admission.*" counters for accept/reject events.
  EngineOptions engine;
  /// Per-socket sharding: give every shard a disjoint pinned CPU range —
  /// shard i's worker w lands on CPU (i * engine.workers + w) mod
  /// hardware_concurrency, so shards stop competing for the same cores
  /// (the "one shard per socket" deployment). Implies engine.pin_workers;
  /// requires an explicit engine.workers > 0 (the range width must be
  /// known up front — start() fails with kInvalidArgument otherwise).
  /// Pin failures fail start(), same as EngineOptions.
  bool pin_shard_cpu_ranges = false;
  /// Overload response beyond rejection (degrade callbacks, deadline-
  /// aware shedding). Default-inert.
  OverloadPolicy overload;
};

/// Where an admitted session landed; pass back to cancel() / report().
struct SessionTicket {
  std::size_t shard = 0;
  std::size_t session = 0;  ///< session index within that shard's Engine
};

struct AdmissionStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  /// Capacity rejections only (every shard at max in-flight) — the
  /// overload signal. Invalid graphs / lifecycle misuse count as
  /// `failed`, not `rejected`, so reject_rate() stays an admission
  /// metric.
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  /// Sessions that closed (completed, retired after cancel/deadline, or
  /// closed unfinished by wait()) and returned their admission slot.
  std::uint64_t completed = 0;
  /// Sessions currently consuming capacity across all shards. In a
  /// ShardedEngine::stats() snapshot the books balance:
  /// accepted == completed + inflight.
  std::uint64_t inflight = 0;
  /// SessionOptions::on_degrade callbacks fired by the overload policy
  /// (each live session degrades at most once, so this also counts
  /// degraded sessions).
  std::uint64_t degraded = 0;
  /// Sessions cancelled by deadline-aware load shedding to admit new
  /// work. Shed sessions still retire through the normal cancel path
  /// and count toward `completed` when their slot returns.
  std::uint64_t shed = 0;
  [[nodiscard]] double reject_rate() const noexcept {
    return submitted > 0
               ? static_cast<double>(rejected) / static_cast<double>(submitted)
               : 0.0;
  }
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Admit a session onto the least-loaded shard, or reject with
  /// kResourceExhausted when every shard is at max_sessions_per_shard.
  /// Legal before start() and — dynamic admission — while the shards are
  /// running; rejected once wait() began. Thread-safe. Same
  /// graph-validity rules as Engine::submit.
  [[nodiscard]] common::Result<SessionTicket> submit(
      const mpsoc::TaskGraph& graph, mpsoc::Mapping mapping,
      std::uint64_t iterations, SessionOptions session_options = {});

  /// Launch every shard's worker pool (idle shards park until traffic
  /// arrives); non-blocking.
  [[nodiscard]] common::Status start();
  /// Close admission and block until every shard drained; first shard
  /// error wins.
  [[nodiscard]] common::Status wait();
  /// start() + wait(). Fails when nothing was admitted (a blocking run
  /// of zero sessions is a caller bug; use start() for a traffic-less
  /// launch).
  [[nodiscard]] common::Status run();

  void cancel(SessionTicket ticket);
  void cancel_all();

  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] std::size_t session_count(std::size_t shard) const;
  [[nodiscard]] std::size_t total_sessions() const noexcept;
  /// Sessions currently consuming capacity on `shard` (admitted minus
  /// completed/retired) — the load-balancing signal.
  [[nodiscard]] std::size_t inflight(std::size_t shard) const;
  /// One *consistent* aggregated snapshot: the admission counters are
  /// frozen under the front-end lock and the completed/in-flight side is
  /// re-read until accepted == completed + inflight holds — a mid-run
  /// sum can never be momentarily out of balance the way independent
  /// per-shard atomic reads are.
  [[nodiscard]] AdmissionStats stats() const noexcept;

  /// Same contract as Engine::report.
  [[nodiscard]] const SessionReport& report(SessionTicket ticket) const;
  /// The underlying shard Engine (e.g. for worker_count()).
  [[nodiscard]] const Engine& shard(std::size_t index) const;
  /// Mutable access — what the boundary sessions use to wire task wakers
  /// (Engine::task_waker) for the shard a ticket landed on.
  [[nodiscard]] Engine& shard(std::size_t index);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mmsoc::runtime
