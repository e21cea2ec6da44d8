// Deterministic fault injection + failure-recovery policy for the I/O
// boundary (the chaos layer of the runtime).
//
// The engine proves itself on clean modeled devices; production
// multimedia platforms live on flaky ones — lossy networks, storage
// that stalls or errors transiently, devices that fail outright. This
// header supplies the three pieces the rest of the runtime threads
// through the boundary:
//
//  * FaultInjector / FaultPlan — a seeded chaos layer wrapping endpoint
//    read/write functions. Every fault decision is a pure hash of
//    (seed, endpoint, unit, attempt): no RNG stream is consumed, so
//    outcomes are independent of thread interleaving and identical
//    across worker counts — chaos runs stay reproducible and bit-exact
//    assertions against a clean run stay possible.
//  * RetryPolicy — capped exponential backoff with deterministic jitter
//    (same hash family). The async boundary adapters (io.h) schedule
//    retries on the IoContext timer, never on an engine worker; the
//    backoff wall time is naturally charged against the session
//    deadline because the deadline monitor keeps ticking through it.
//  * IoErrorSummary — the multi-error diagnosis record (count, first /
//    last failing unit, first/last status) endpoints and adapters
//    accumulate and the engine rolls into SessionReport.
//
// Endpoint status convention (TryReadFn / TryWriteFn) — the only one:
// every boundary endpoint speaks it, and one escalation in the I/O
// adapters (io.h, BoundaryAdapter) implements it:
//  - ok            the unit's payload / write completed
//  - kOutOfRange   clean end of stream — the source delivers an empty
//                  payload and counts an underrun, the session still
//                  completes
//  - kUnavailable  transient device error — retried under RetryPolicy;
//                  exhaustion escalates to a session failure
//  - anything else permanent error (e.g. a volume error, kInternal, or
//                  a device that reports itself stuck with
//                  kResourceExhausted) — the adapter fails the session
//                  immediately (Engine::fail_session -> kUnavailable)
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "mpsoc/taskgraph.h"
#include "runtime/telemetry.h"

namespace mmsoc::runtime {

/// Fallible boundary read: produce unit `index` or explain why not (see
/// the status convention above).
using TryReadFn = std::function<common::Result<mpsoc::Payload>(std::uint64_t)>;
/// Fallible boundary write: persist unit `index` or explain why not.
using TryWriteFn =
    std::function<common::Status(std::uint64_t, const mpsoc::Payload&)>;

/// Capped exponential backoff with deterministic jitter. backoff_us() is
/// a pure function of (seed, unit, attempt), so a chaos run retries at
/// the same instants-relative-to-each-other regardless of interleaving.
struct RetryPolicy {
  /// Total tries per unit (first attempt included); 1 disables retry.
  std::uint32_t max_attempts = 4;
  double initial_backoff_us = 200.0;
  double multiplier = 2.0;
  double max_backoff_us = 5000.0;
  /// Jitter fraction: the delay is scaled by a deterministic factor in
  /// [1 - jitter, 1 + jitter] to decorrelate retry storms.
  double jitter = 0.25;
  /// Seed for the jitter hash (share the FaultInjector seed for fully
  /// reproducible chaos runs).
  std::uint64_t seed = 0;

  /// Backoff before retry number `attempt` (1-based: the delay between
  /// attempt N failing and attempt N+1 starting) of `unit`.
  [[nodiscard]] double backoff_us(std::uint64_t unit,
                                  std::uint32_t attempt) const;
};

/// Per-endpoint chaos schedule. All probabilities are per (unit,
/// attempt) decision; an injected transient error re-rolls on the next
/// attempt, so retries eventually succeed with probability 1 - rate.
struct FaultPlan {
  /// Probability a read / write op reports a transient error
  /// (kUnavailable). Evaluated per burst group (see burst_length).
  double read_error_rate = 0.0;
  double write_error_rate = 0.0;
  /// Error bursts: units are grouped in runs of this length and the
  /// transient-error roll is made once per (group, attempt) — a
  /// triggered group fails every unit in it on that attempt, modeling
  /// correlated device hiccups. 1 = independent per-unit errors.
  std::uint32_t burst_length = 1;
  /// Probability an op is delayed by latency_spike_us (slept on the I/O
  /// thread — never a worker) before executing.
  double latency_spike_rate = 0.0;
  double latency_spike_us = 0.0;
  /// Probability a *successful* read's payload is corrupted (one byte
  /// per 64 deterministically flipped). Downstream decoders are
  /// expected to conceal; the count is reported for accounting.
  double corruption_rate = 0.0;
  /// Permanent failure: ops on units >= this index fail with a
  /// non-retryable error (kCorruptData). ~0 = never.
  std::uint64_t fail_at_unit = ~std::uint64_t{0};
};

/// What the injector did to one endpoint (or, summed, to all of them).
struct FaultStats {
  std::uint64_t ops = 0;               ///< decisions taken (reads + writes)
  std::uint64_t transient_errors = 0;  ///< kUnavailable injected
  std::uint64_t latency_spikes = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t permanent_errors = 0;

  [[nodiscard]] std::uint64_t injected() const noexcept {
    return transient_errors + latency_spikes + corruptions + permanent_errors;
  }
  void merge(const FaultStats& o) noexcept;
};

/// Seeded, deterministic fault injector. Register each endpoint once
/// (name + plan), then wrap its fallible read/write function; the
/// wrapper consults the plan before/after delegating. Decisions are
/// stateless hashes — see the header comment — so two injectors with
/// the same seed and plans produce identical fault schedules no matter
/// how ops interleave across threads. Stats accumulation is the only
/// mutable state (mutex-guarded; wrappers are thread-safe).
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, Telemetry* telemetry = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Register an endpoint; the returned id keys wrap_* and stats().
  std::size_t add_endpoint(std::string name, FaultPlan plan);

  /// Wrap a fallible read: injected faults are reported through the
  /// TryReadFn status convention (transient = kUnavailable, permanent =
  /// kCorruptData); corruption and latency spikes perturb successful
  /// inner reads. The wrapper borrows this injector — it must outlive
  /// every wrapper it handed out.
  [[nodiscard]] TryReadFn wrap_read(std::size_t endpoint, TryReadFn inner);
  [[nodiscard]] TryWriteFn wrap_write(std::size_t endpoint, TryWriteFn inner);

  [[nodiscard]] FaultStats stats(std::size_t endpoint) const;
  [[nodiscard]] FaultStats total_stats() const;
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t endpoint_count() const;
  [[nodiscard]] std::string endpoint_name(std::size_t endpoint) const;

  /// The deterministic decision core, public for tests: uniform double
  /// in [0, 1) from (seed, endpoint, unit, attempt, salt).
  [[nodiscard]] static double roll(std::uint64_t seed, std::uint64_t endpoint,
                                   std::uint64_t unit, std::uint64_t attempt,
                                   std::uint64_t salt) noexcept;

 private:
  struct Endpoint {
    std::string name;
    FaultPlan plan;
    FaultStats stats;
    /// Attempt tracking for the wrappers: ops are strictly ordered per
    /// endpoint (the adapters keep one in flight), so a repeated unit
    /// index is a retry of that unit.
    std::uint64_t last_read_unit = ~std::uint64_t{0};
    std::uint64_t read_attempt = 0;
    std::uint64_t last_write_unit = ~std::uint64_t{0};
    std::uint64_t write_attempt = 0;
  };

  /// The pre-delegation decision for one op. Applies the latency spike
  /// (sleeps) and stats accounting; returns non-ok when the op must not
  /// reach the inner endpoint.
  common::Status decide(std::size_t endpoint, std::uint64_t unit,
                        std::uint64_t attempt, bool is_write);

  const std::uint64_t seed_;
  mutable std::mutex mu_;
  std::vector<Endpoint> endpoints_;
  Counter* m_injected_ = nullptr;  ///< "fault.injected" (null when no sink)
  Counter* m_spikes_ = nullptr;    ///< "fault.latency_spikes"
};

/// Multi-error diagnosis record: unlike a first-error-wins Status, this
/// keeps the shape of the whole failure episode. Accumulated by block
/// endpoints and boundary adapters, merged into SessionReport.
struct IoErrorSummary {
  std::uint64_t errors = 0;   ///< device errors observed (incl. retried ones)
  std::uint64_t retries = 0;  ///< recovery attempts scheduled against them
  std::uint64_t first_unit = 0;
  std::uint64_t last_unit = 0;
  common::Status first_status;
  common::Status last_status;

  void record(std::uint64_t unit, const common::Status& status);
  void merge(const IoErrorSummary& o);
  [[nodiscard]] bool any() const noexcept { return errors != 0; }
};

}  // namespace mmsoc::runtime
