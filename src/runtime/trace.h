// Model-vs-reality: line up the analytic Schedule prediction with what
// the dataflow runtime actually measured, making prediction error a
// first-class metric (the calibration loop the paper's methodology
// implies: predict, build, measure, refine the model).
//
// Attribution is by *logical PE*: the comparison keys every stage to the
// task id / mapped PE the analytic model reasoned about, even when the
// runqueue scheduler executed the task on a different physical worker
// (work stealing migrates whole tasks between workers). The executing
// worker and migration count are reported alongside, so a large
// model-vs-measured gap can be told apart from a placement that simply
// moved: the predicted cost still compares against the body time of the
// same logical stage, wherever it ran.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "mpsoc/schedule.h"
#include "runtime/engine.h"

namespace mmsoc::runtime {

/// One Fig.1/Fig.2 box: predicted vs measured execution time.
struct StageComparison {
  std::string name;
  std::size_t pe = 0;             ///< logical PE (the model's placement)
  std::size_t worker = 0;         ///< physical worker that ended up owning it
  std::uint64_t migrations = 0;   ///< times the steal scheduler moved it
  double predicted_s = 0.0;       ///< model: exec_seconds on the mapped PE
  /// Runtime: mean time per firing, derived from busy_s / firings.
  /// Under batched dispatch busy_s is the batch wall (bodies plus the
  /// wait-free channel hand-off between them; locks/parks/notifies stay
  /// outside the window), so the comparison carries a few tens of ns of
  /// dispatch per firing — negligible against real kernel bodies, worth
  /// remembering when modeling sub-microsecond synthetic stages.
  double measured_mean_s = 0.0;
  /// Mean boundary (I/O gate) wait per firing — reported as its own
  /// column so a stalled async source/sink reads as device latency, not
  /// as compute the model failed to predict. 0 for pure compute stages.
  double io_wait_s = 0.0;
  double predicted_share = 0.0;   ///< fraction of summed predicted time
  double measured_share = 0.0;    ///< fraction of summed measured time
  /// Frame-journey columns (unit-ledger sourced; see SessionReport::
  /// unit_trace): sampled-unit count and mean per-unit channel queue wait
  /// / body service at this stage. Zero when unit tracing was off.
  std::uint64_t unit_sampled = 0;
  double unit_queue_wait_s = 0.0;
  double unit_service_s = 0.0;
};

struct ModelComparison {
  double predicted_makespan_s = 0.0;  ///< analytic one-iteration latency
  double predicted_ii_s = 0.0;        ///< analytic initiation interval
  double measured_wall_s = 0.0;
  double measured_ii_s = 0.0;
  /// measured II / predicted II: 1.0 = the model nailed it. The modeled
  /// silicon and the host CPU differ in absolute speed, so compare
  /// *shapes* (shares, ratios), not absolute seconds.
  double ii_error_ratio = 0.0;
  /// Rank correlation (-1..1) between predicted and measured per-stage
  /// cost orderings; high = the model identifies the right bottlenecks.
  double stage_rank_correlation = 0.0;
  /// Measured end-to-end frame latency from the unit ledger (sampled
  /// units only; NaN when unit tracing was off). Compare against
  /// predicted_makespan_s: the analytic one-iteration latency is the
  /// model's prediction of exactly this journey.
  std::uint64_t sampled_units = 0;
  double measured_mean_latency_s = std::numeric_limits<double>::quiet_NaN();
  double measured_p50_latency_s = std::numeric_limits<double>::quiet_NaN();
  double measured_p99_latency_s = std::numeric_limits<double>::quiet_NaN();
  /// measured mean latency / predicted makespan; NaN when either is
  /// unavailable. Same caveat as ii_error_ratio: compare shapes, the
  /// modeled silicon and the host differ in absolute speed.
  double latency_error_ratio = std::numeric_limits<double>::quiet_NaN();
  std::vector<StageComparison> stages;
};

/// Line up a measured session with its analytic schedule. `mapping` must
/// be the one the session ran under.
[[nodiscard]] ModelComparison compare_with_schedule(
    const SessionReport& measured, const mpsoc::TaskGraph& graph,
    const mpsoc::Platform& platform, const mpsoc::Mapping& mapping,
    const mpsoc::Schedule& predicted);

/// Fixed-width text table of a comparison.
[[nodiscard]] std::string format_comparison(const ModelComparison& c);

}  // namespace mmsoc::runtime
