// List scheduling of a mapped task graph with interconnect contention,
// plus the derived performance/energy metrics.
//
// The schedule answers the questions §2 poses for every consumer device:
// does the application meet its frame rate on this silicon, at what
// power? Latency is the makespan of one iteration over the delay-free
// edges; sustained throughput assumes software pipelining, so the
// initiation interval is bounded by the busiest resource (PE or
// interconnect) and by every loop a delay edge closes (iteration i + delay
// cannot start its consumer before iteration i's producer delivered),
// not by the critical path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mpsoc/platform.h"
#include "mpsoc/taskgraph.h"

namespace mmsoc::mpsoc {

/// Mapping: task id -> index into Platform::pes.
using Mapping = std::vector<std::size_t>;

struct TaskInterval {
  TaskId task = 0;
  std::size_t pe = 0;
  double start_s = 0.0;
  double finish_s = 0.0;
};

struct Schedule {
  std::vector<TaskInterval> intervals;   ///< indexed by task id
  double makespan_s = 0.0;               ///< one-iteration latency
  std::vector<double> pe_busy_s;         ///< per PE
  double interconnect_busy_s = 0.0;      ///< busiest link
  /// Loop bound: max over delay edges of (finish(src) + transfer -
  /// start(dst)) / delay.
  double recurrence_s = 0.0;
  double energy_j = 0.0;                 ///< one iteration
  bool feasible = false;

  /// Pipelined initiation interval: the larger of the busiest resource
  /// and recurrence_s bounds steady-state throughput.
  [[nodiscard]] double initiation_interval_s() const noexcept;
  /// Iterations (frames) per second in steady state.
  [[nodiscard]] double throughput_per_s() const noexcept;
  /// Average power over one pipelined iteration.
  [[nodiscard]] double average_power_w() const noexcept {
    const double ii = initiation_interval_s();
    return ii > 0.0 ? energy_j / ii : 0.0;
  }
  /// Mean PE utilization during one iteration.
  [[nodiscard]] double mean_utilization() const noexcept;
};

/// Schedule `graph` on `platform` under `mapping` using list scheduling
/// (priority = HEFT-style upward rank), placing tasks by delay-free
/// precedence. Interconnect transfers between distinct PEs, delay edges
/// included, serialize on their link (one shared bus, or one of
/// `mesh_links` for a mesh).
[[nodiscard]] Schedule list_schedule(const TaskGraph& graph,
                                     const Platform& platform,
                                     const Mapping& mapping);

/// Upward ranks (mean exec + mean comm to exit over delay-free edges),
/// the classic HEFT priority. Higher rank = schedule earlier.
[[nodiscard]] std::vector<double> upward_ranks(const TaskGraph& graph,
                                               const Platform& platform);

}  // namespace mmsoc::mpsoc
