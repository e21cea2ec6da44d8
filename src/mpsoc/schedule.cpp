#include "mpsoc/schedule.h"

#include <algorithm>
#include <cmath>

namespace mmsoc::mpsoc {

double Schedule::initiation_interval_s() const noexcept {
  double ii = std::max(interconnect_busy_s, recurrence_s);
  for (const double b : pe_busy_s) ii = std::max(ii, b);
  return ii;
}

double Schedule::throughput_per_s() const noexcept {
  const double ii = initiation_interval_s();
  return ii > 0.0 ? 1.0 / ii : 0.0;
}

double Schedule::mean_utilization() const noexcept {
  if (pe_busy_s.empty() || makespan_s <= 0.0) return 0.0;
  double sum = 0.0;
  for (const double b : pe_busy_s) sum += b / makespan_s;
  return sum / static_cast<double>(pe_busy_s.size());
}

std::vector<double> upward_ranks(const TaskGraph& graph,
                                 const Platform& platform) {
  const auto order = graph.topological_order();
  std::vector<double> rank(graph.task_count(), 0.0);
  if (!order.is_ok()) return rank;
  const double bw = platform.interconnect.bandwidth_bytes_per_s;

  // Walk reverse-topologically: rank(t) = exec_mean(t) + max over succ
  // (comm_mean + rank(succ)). Mean comm assumes a cross-PE transfer half
  // the time (the standard HEFT approximation).
  const auto& topo = order.value();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId t = *it;
    double best_succ = 0.0;
    for (const auto& e : graph.edges()) {
      if (e.src != t || e.delay != 0) continue;
      const double comm = 0.5 * (e.bytes / bw + platform.interconnect.latency_s);
      best_succ = std::max(best_succ, comm + rank[e.dst]);
    }
    const double exec = mean_exec_seconds(platform, graph.task(t));
    rank[t] = (exec >= 0.0 ? exec : 0.0) + best_succ;
  }
  return rank;
}

Schedule list_schedule(const TaskGraph& graph, const Platform& platform,
                       const Mapping& mapping) {
  Schedule s;
  s.pe_busy_s.assign(platform.pes.size(), 0.0);
  if (mapping.size() != graph.task_count()) return s;
  const auto order_result = graph.topological_order();
  if (!order_result.is_ok()) return s;

  // Feasibility: every task must run on its mapped PE.
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    if (mapping[t] >= platform.pes.size()) return s;
    if (platform.pes[mapping[t]].exec_seconds(graph.task(t)) < 0.0) return s;
  }

  // Priority order: decreasing upward rank, ties by topological position
  // (processing in this order guarantees predecessors are placed first
  // because rank(pred) > rank(succ) along every delay-free edge).
  const auto ranks = upward_ranks(graph, platform);
  std::vector<TaskId> order = order_result.value();
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return ranks[a] > ranks[b];
  });

  const auto& ic = platform.interconnect;
  const int links =
      ic.kind == InterconnectKind::kSharedBus ? 1 : std::max(1, ic.mesh_links);
  std::vector<double> link_free(static_cast<std::size_t>(links), 0.0);
  std::vector<double> link_busy(static_cast<std::size_t>(links), 0.0);
  std::vector<double> pe_free(platform.pes.size(), 0.0);
  std::vector<double> finish(graph.task_count(), 0.0);
  s.intervals.resize(graph.task_count());

  double comm_bytes = 0.0;
  // When edge e's data reaches its consumer: a cross-PE transfer waits
  // for its link and occupies it.
  const auto arrival = [&](const Edge& e) {
    const double done = finish[e.src];
    if (mapping[e.src] == mapping[e.dst] || !(e.bytes > 0.0)) return done;
    const std::size_t link =
        ic.kind == InterconnectKind::kSharedBus
            ? 0
            : (mapping[e.src] * 31 + mapping[e.dst]) %
                  static_cast<std::size_t>(links);
    const double duration = e.bytes / ic.bandwidth_bytes_per_s + ic.latency_s;
    const double start = std::max(done, link_free[link]);
    link_free[link] = start + duration;
    link_busy[link] += duration;
    comm_bytes += e.bytes;
    return start + duration;
  };

  for (const TaskId t : order) {
    const std::size_t pe = mapping[t];
    double ready = 0.0;
    for (const auto& e : graph.edges()) {
      // Delay-free predecessors always precede t in the priority order
      // (rank dominance along those edges), so finish[] is final here.
      if (e.dst == t && e.delay == 0) ready = std::max(ready, arrival(e));
    }
    const double exec = platform.pes[pe].exec_seconds(graph.task(t));
    const double start = std::max(ready, pe_free[pe]);
    const double end = start + exec;
    pe_free[pe] = end;
    finish[t] = end;
    s.pe_busy_s[pe] += exec;
    s.intervals[t] = TaskInterval{t, pe, start, end};
    s.makespan_s = std::max(s.makespan_s, end);
  }

  // A delay edge feeds a later iteration: its transfer still loads the
  // interconnect, and the loop it closes bounds the initiation interval.
  for (const auto& e : graph.edges()) {
    if (e.delay == 0) continue;
    s.recurrence_s = std::max(
        s.recurrence_s,
        (arrival(e) - s.intervals[e.dst].start_s) / static_cast<double>(e.delay));
  }
  s.interconnect_busy_s = *std::max_element(link_busy.begin(), link_busy.end());

  // Energy: active during execution, idle for the rest of the iteration,
  // plus interconnect energy per byte.
  for (std::size_t p = 0; p < platform.pes.size(); ++p) {
    const auto& pe = platform.pes[p];
    s.energy_j += s.pe_busy_s[p] * pe.active_power_w;
    s.energy_j += std::max(0.0, s.makespan_s - s.pe_busy_s[p]) * pe.idle_power_w;
  }
  s.energy_j += comm_bytes * ic.energy_per_byte_j;
  s.feasible = true;
  return s;
}

}  // namespace mmsoc::mpsoc
