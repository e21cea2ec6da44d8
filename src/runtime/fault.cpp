#include "runtime/fault.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/rng.h"

namespace mmsoc::runtime {

using common::Result;
using common::Status;
using common::StatusCode;

namespace {

// Decision salts: one hash stream per fault kind so e.g. the transient
// roll and the spike roll of the same op are independent.
constexpr std::uint64_t kSaltTransientRead = 0x7261'6e73'5244ull;
constexpr std::uint64_t kSaltTransientWrite = 0x7261'6e73'5752ull;
constexpr std::uint64_t kSaltSpike = 0x7370'696b'65ull;
constexpr std::uint64_t kSaltCorrupt = 0x636f'7272ull;
constexpr std::uint64_t kSaltJitter = 0x6a69'7474ull;

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  return common::mix64(x + 0x9e3779b97f4a7c15ull);
}

double to_unit_double(std::uint64_t h) noexcept {
  // Top 53 bits -> [0, 1), the standard xoshiro-family conversion.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

double RetryPolicy::backoff_us(std::uint64_t unit,
                               std::uint32_t attempt) const {
  double base = initial_backoff_us;
  for (std::uint32_t i = 1; i < attempt; ++i) {
    base *= multiplier;
    if (base >= max_backoff_us) break;
  }
  base = std::min(base, max_backoff_us);
  if (jitter > 0.0) {
    const double u = FaultInjector::roll(seed, 0, unit, attempt, kSaltJitter);
    base *= 1.0 + jitter * (2.0 * u - 1.0);  // [1 - j, 1 + j]
  }
  return std::max(base, 0.0);
}

// ---------------------------------------------------------------------------
// FaultStats / IoErrorSummary
// ---------------------------------------------------------------------------

void FaultStats::merge(const FaultStats& o) noexcept {
  ops += o.ops;
  transient_errors += o.transient_errors;
  latency_spikes += o.latency_spikes;
  corruptions += o.corruptions;
  permanent_errors += o.permanent_errors;
}

void IoErrorSummary::record(std::uint64_t unit, const Status& status) {
  if (errors == 0) {
    first_unit = unit;
    first_status = status;
  }
  ++errors;
  last_unit = unit;
  last_status = status;
}

void IoErrorSummary::merge(const IoErrorSummary& o) {
  if (o.errors == 0) {
    retries += o.retries;
    return;
  }
  if (errors == 0) {
    *this = o;
    return;
  }
  errors += o.errors;
  retries += o.retries;
  if (o.first_unit < first_unit) {
    first_unit = o.first_unit;
    first_status = o.first_status;
  }
  if (o.last_unit >= last_unit) {
    last_unit = o.last_unit;
    last_status = o.last_status;
  }
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(std::uint64_t seed, Telemetry* telemetry)
    : seed_(seed) {
  if (telemetry != nullptr) {
    auto& m = telemetry->metrics();
    m_injected_ = m.counter("fault.injected");
    m_spikes_ = m.counter("fault.latency_spikes");
  }
}

std::size_t FaultInjector::add_endpoint(std::string name, FaultPlan plan) {
  std::lock_guard lock(mu_);
  endpoints_.push_back(Endpoint{std::move(name), plan, FaultStats{}});
  return endpoints_.size() - 1;
}

double FaultInjector::roll(std::uint64_t seed, std::uint64_t endpoint,
                           std::uint64_t unit, std::uint64_t attempt,
                           std::uint64_t salt) noexcept {
  // Chained SplitMix64 over the decision coordinates: each input fully
  // avalanches before the next is mixed in, so nearby units / attempts
  // land in unrelated parts of the stream.
  std::uint64_t h = splitmix64(seed ^ salt);
  h = splitmix64(h ^ endpoint);
  h = splitmix64(h ^ unit);
  h = splitmix64(h ^ attempt);
  return to_unit_double(h);
}

Status FaultInjector::decide(std::size_t endpoint, std::uint64_t unit,
                             std::uint64_t attempt, bool is_write) {
  FaultPlan plan;
  {
    std::lock_guard lock(mu_);
    auto& ep = endpoints_.at(endpoint);
    plan = ep.plan;
    ++ep.stats.ops;
  }
  Status st = Status::ok();
  double spike_us = 0.0;
  std::uint64_t injected = 0;
  if (unit >= plan.fail_at_unit) {
    st = Status(StatusCode::kCorruptData,
                "injected permanent device failure at unit " +
                    std::to_string(unit));
  } else {
    const double rate = is_write ? plan.write_error_rate : plan.read_error_rate;
    if (rate > 0.0) {
      // One roll per burst group: a triggered group fails every unit in
      // it on this attempt, re-rolling (and typically clearing) on the
      // next attempt.
      const std::uint64_t group =
          unit / std::max<std::uint32_t>(1, plan.burst_length);
      const std::uint64_t salt =
          is_write ? kSaltTransientWrite : kSaltTransientRead;
      if (roll(seed_, endpoint, group, attempt, salt) < rate) {
        st = Status(StatusCode::kUnavailable,
                    std::string("injected transient ") +
                        (is_write ? "write" : "read") + " error at unit " +
                        std::to_string(unit) + ", attempt " +
                        std::to_string(attempt));
      }
    }
    if (st.is_ok() && plan.latency_spike_rate > 0.0 &&
        roll(seed_, endpoint, unit, attempt, kSaltSpike) <
            plan.latency_spike_rate) {
      spike_us = plan.latency_spike_us;
    }
  }
  {
    std::lock_guard lock(mu_);
    auto& stats = endpoints_[endpoint].stats;
    switch (st.code()) {
      case StatusCode::kCorruptData:
        ++stats.permanent_errors;
        ++injected;
        break;
      case StatusCode::kUnavailable:
        ++stats.transient_errors;
        ++injected;
        break;
      default:
        break;
    }
    if (spike_us > 0.0) {
      ++stats.latency_spikes;
      ++injected;
    }
  }
  if (m_injected_ != nullptr && injected != 0) m_injected_->add(injected);
  if (spike_us > 0.0) {
    if (m_spikes_ != nullptr) m_spikes_->add(1);
    // The spike sleeps on the calling (I/O) thread — modeling a slow op,
    // never stalling an engine worker.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(spike_us));
  }
  return st;
}

TryReadFn FaultInjector::wrap_read(std::size_t endpoint, TryReadFn inner) {
  return [this, endpoint, inner = std::move(inner)](
             std::uint64_t unit) -> Result<mpsoc::Payload> {
    std::uint64_t attempt;
    FaultPlan plan;
    {
      // Attempt tracking: reads are strictly ordered per endpoint (one
      // in flight), so a repeated unit index is a retry of it.
      std::lock_guard lock(mu_);
      auto& ep = endpoints_.at(endpoint);
      if (ep.last_read_unit == unit) {
        ++ep.read_attempt;
      } else {
        ep.last_read_unit = unit;
        ep.read_attempt = 0;
      }
      attempt = ep.read_attempt;
      plan = ep.plan;
    }
    const Status st = decide(endpoint, unit, attempt, /*is_write=*/false);
    if (!st.is_ok()) return Result<mpsoc::Payload>(st);
    Result<mpsoc::Payload> produced = inner(unit);
    if (produced.is_ok() && plan.corruption_rate > 0.0 &&
        !produced.value().empty() &&
        roll(seed_, endpoint, unit, attempt, kSaltCorrupt) <
            plan.corruption_rate) {
      // Deterministic bit rot: flip one byte per 64, phase chosen by the
      // same hash family, so corrupted payloads are reproducible too.
      auto& bytes = produced.value();
      const std::size_t phase = static_cast<std::size_t>(
          splitmix64(seed_ ^ unit ^ kSaltCorrupt) % 64);
      for (std::size_t i = phase; i < bytes.size(); i += 64) {
        bytes[i] ^= 0xA5;
      }
      std::lock_guard lock(mu_);
      ++endpoints_[endpoint].stats.corruptions;
      if (m_injected_ != nullptr) m_injected_->add(1);
    }
    return produced;
  };
}

TryWriteFn FaultInjector::wrap_write(std::size_t endpoint, TryWriteFn inner) {
  return [this, endpoint, inner = std::move(inner)](
             std::uint64_t unit, const mpsoc::Payload& payload) -> Status {
    std::uint64_t attempt;
    {
      std::lock_guard lock(mu_);
      auto& ep = endpoints_.at(endpoint);
      if (ep.last_write_unit == unit) {
        ++ep.write_attempt;
      } else {
        ep.last_write_unit = unit;
        ep.write_attempt = 0;
      }
      attempt = ep.write_attempt;
    }
    const Status st = decide(endpoint, unit, attempt, /*is_write=*/true);
    if (!st.is_ok()) return st;
    return inner(unit, payload);
  };
}

FaultStats FaultInjector::stats(std::size_t endpoint) const {
  std::lock_guard lock(mu_);
  return endpoints_.at(endpoint).stats;
}

FaultStats FaultInjector::total_stats() const {
  std::lock_guard lock(mu_);
  FaultStats total;
  for (const auto& ep : endpoints_) total.merge(ep.stats);
  return total;
}

std::size_t FaultInjector::endpoint_count() const {
  std::lock_guard lock(mu_);
  return endpoints_.size();
}

std::string FaultInjector::endpoint_name(std::size_t endpoint) const {
  std::lock_guard lock(mu_);
  return endpoints_.at(endpoint).name;
}

}  // namespace mmsoc::runtime
