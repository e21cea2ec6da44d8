// Measurement plumbing shared by every workload: clocks, the percentile
// rule, load schedules, output verification tallies, and a minimal JSON
// writer. The rules (percentiles, schedules, tallies) are pure functions
// of their inputs so the self-test can check them without a workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mmsoc::bench {

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_between(std::uint64_t a_ns,
                                            std::uint64_t b_ns) noexcept {
  return (static_cast<double>(b_ns) - static_cast<double>(a_ns)) * 1e-9;
}

/// Sleep until the steady-clock instant `t_ns` (returns at once if past).
void sleep_until_ns(std::uint64_t t_ns);

/// Steady-clock instant main() was entered: set-up time counts from here.
extern std::uint64_t g_process_start_ns;

/// A run sets up this many times and reports the median as setup_s, so
/// work moved into set-up shows without one slow set-up deciding it.
inline constexpr int kSetupReps = 3;

/// Set-up work (reference runs, session builds) runs on this many threads;
/// the measured window never overlaps it.
inline constexpr std::size_t kSetupThreads = 4;

/// Run fn(0) .. fn(n-1) on up to kSetupThreads threads and join them all;
/// the first exception a call throws is rethrown here.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

// ---------------------------------------------------------------------------
// Percentiles: a percentile is reported only if at least kMinBeyond samples
// lie beyond it; a tail asks for a target and falls back to the highest
// percentile the sample supports.
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kMinBeyond = 10;

/// Samples strictly above the nearest-rank q-quantile of n samples.
[[nodiscard]] std::uint64_t samples_beyond(double q, std::uint64_t n) noexcept;

struct Percentile {
  double q = 0.0;           ///< quantile actually reported
  double value = 0.0;       ///< nearest-rank sample at q
  std::uint64_t samples = 0;
  bool ok = false;          ///< false: fewer than kMinBeyond + 1 samples
};

/// The q_target-quantile if it has kMinBeyond samples beyond it, otherwise
/// the highest quantile that does. Sorts `v` in place.
[[nodiscard]] Percentile percentile(std::vector<double>& v, double q_target);

/// Plain median of a few repeated measurements (set-up times).
[[nodiscard]] double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Load schedules (offsets in seconds from the start of the load). Both are
// pure functions of their arguments, so a slow host receives the same
// offered load as a fast one.
// ---------------------------------------------------------------------------

/// Open-loop arrivals of a Poisson process at `rate_hz` over
/// [0, duration_s), conditioned on its expected count round(rate *
/// duration): that many uniform instants, sorted. Conditioning keeps the
/// offered load equal across seeds while gaps stay exponential-like.
[[nodiscard]] std::vector<double> poisson_arrivals(std::uint64_t seed,
                                                   double rate_hz,
                                                   double duration_s);

/// Start offsets of `streams` streams spread evenly over one frame
/// interval: stream k starts at k * interval_s / streams.
[[nodiscard]] std::vector<double> stagger_starts(std::size_t streams,
                                                 double interval_s);

/// Scene seed of corpus entry `k`. Job content is a fixed corpus of
/// synthetic scenes, as a codec test suite uses fixed clips; the run's
/// seed drives what is random in the load (arrivals, faults). Drawing the
/// scenes from the run's seed spread live_relay's lateness p50 by 8%
/// across seeds (3.5% with the fixed corpus): the program derives a
/// stream's loss pattern from its scene seed.
[[nodiscard]] constexpr std::uint64_t corpus_seed(std::size_t k) noexcept {
  return k + 1;
}

/// A seed for job `index` of a run (fault schedules, retry jitter).
[[nodiscard]] std::uint64_t job_seed(std::uint64_t run_seed,
                                     std::uint64_t index) noexcept;

// ---------------------------------------------------------------------------
// Output verification
// ---------------------------------------------------------------------------

/// What a job produced: two CRCs and the unit counts behind them. A
/// measured job must equal the reference run of the same content.
struct Digest {
  std::uint64_t crc_a = 0;
  std::uint64_t crc_b = 0;
  std::uint64_t units_a = 0;
  std::uint64_t units_b = 0;
  bool operator==(const Digest&) const = default;
};

/// How a job or stream ended, as the harness classifies it.
enum class JobEnd {
  kCompleted,  ///< every unit went through; the digest is checked
  kCutoff,     ///< the harness cancelled it at a deadline it imposed
  kFailed,     ///< the program ended it (failure, deadline, quarantine)
  kRejected,   ///< admission refused it
};

/// Attempted and failed jobs. A job fails when the program ended it,
/// admission refused it, or it completed with a digest other than its
/// reference. A job the harness cut off is attempted but not failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(JobEnd end, const Digest& got, const Digest& reference);
  [[nodiscard]] double failed_share() const noexcept {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

/// One stream of a live-relay rung, as observed.
struct StreamFrames {
  double start_s = 0.0;  ///< scheduled start, from the rung start
  /// Per frame: end of its display firing, from the rung start; a
  /// negative value means the frame was never displayed.
  std::vector<double> display_end_s;
};

/// A rung's frame accounting. Frame i of a stream is due at the stream's
/// scheduled start + i * interval; lateness is display end minus due
/// time, so a stream submitted late carries that delay on every frame.
struct RungFrames {
  std::uint64_t due = 0;
  std::uint64_t displayed = 0;
  std::uint64_t late = 0;            ///< later than the limit, or never shown
  std::vector<double> lateness_ms;   ///< displayed frames only
  [[nodiscard]] double late_share() const noexcept {
    return due > 0 ? static_cast<double>(late) / static_cast<double>(due)
                   : 0.0;
  }
};

[[nodiscard]] RungFrames tally_frames(const std::vector<StreamFrames>& streams,
                                      double interval_s, double late_limit_ms);

/// A stream's frames as observed: its scheduled start and the display-end
/// stamps (steady-clock ns, 0 = never shown), relative to the rung start.
/// Takes no submit time: lateness never credits a late send.
[[nodiscard]] StreamFrames stream_frames(
    double scheduled_start_s, const std::vector<std::uint64_t>& display_end_ns,
    std::uint64_t rung_start_ns);

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// A named metric as printed: value, unit, and for percentiles the sample
/// count and the quantile actually reported.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  double quantile = -1.0;  ///< < 0: not a percentile
};
using Metrics = std::vector<Metric>;

void add_metric(Metrics& m, std::string name, double value, std::string unit,
                std::uint64_t samples = 0);
void add_percentile(Metrics& m, std::string name, const Percentile& p,
                    double scale, std::string unit);

/// Minimal JSON object builder: fields keep insertion order, values are
/// pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, std::string json);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& num(const std::string& key, double value);
  JsonObject& num(const std::string& key, std::uint64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_string(const std::string& s);
/// Shortest round-trip rendering; non-finite values become null.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_metrics(const Metrics& m);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace mmsoc::bench
