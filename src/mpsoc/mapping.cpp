#include "mpsoc/mapping.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace mmsoc::mpsoc {
namespace {

// PEs a task can legally run on.
std::vector<std::size_t> feasible_pes(const Task& task,
                                      const Platform& platform) {
  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < platform.pes.size(); ++p) {
    if (platform.pes[p].exec_seconds(task) >= 0.0) out.push_back(p);
  }
  return out;
}

MappingResult round_robin(const TaskGraph& graph, const Platform& platform) {
  MappingResult r;
  r.mapping.resize(graph.task_count());
  std::size_t cursor = 0;
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const auto feasible = feasible_pes(graph.task(t), platform);
    if (feasible.empty()) return r;
    r.mapping[t] = feasible[cursor++ % feasible.size()];
  }
  r.schedule = list_schedule(graph, platform, r.mapping);
  return r;
}

MappingResult greedy_load_balance(const TaskGraph& graph,
                                  const Platform& platform) {
  MappingResult r;
  r.mapping.resize(graph.task_count());
  // Longest task first, placed on the PE with least accumulated load
  // after accounting for that PE's speed on this task.
  std::vector<TaskId> order(graph.task_count());
  for (TaskId t = 0; t < order.size(); ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return graph.task(a).work_ops > graph.task(b).work_ops;
  });
  std::vector<double> load(platform.pes.size(), 0.0);
  for (const TaskId t : order) {
    const auto feasible = feasible_pes(graph.task(t), platform);
    if (feasible.empty()) return r;
    std::size_t best = feasible[0];
    double best_finish = std::numeric_limits<double>::infinity();
    for (const auto p : feasible) {
      const double finish = load[p] + platform.pes[p].exec_seconds(graph.task(t));
      if (finish < best_finish) {
        best_finish = finish;
        best = p;
      }
    }
    r.mapping[t] = best;
    load[best] = best_finish;
  }
  r.schedule = list_schedule(graph, platform, r.mapping);
  return r;
}

MappingResult heft(const TaskGraph& graph, const Platform& platform) {
  MappingResult r;
  r.mapping.assign(graph.task_count(), 0);
  const auto order_result = graph.topological_order();
  if (!order_result.is_ok()) return r;
  const auto ranks = upward_ranks(graph, platform);
  std::vector<TaskId> order = order_result.value();
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return ranks[a] > ranks[b];
  });

  const auto& ic = platform.interconnect;
  const int links =
      ic.kind == InterconnectKind::kSharedBus ? 1 : std::max(1, ic.mesh_links);
  std::vector<double> pe_free(platform.pes.size(), 0.0);
  std::vector<double> link_free(static_cast<std::size_t>(links), 0.0);
  std::vector<double> finish(graph.task_count(), 0.0);

  for (const TaskId t : order) {
    const auto feasible = feasible_pes(graph.task(t), platform);
    if (feasible.empty()) return r;
    std::size_t best_pe = feasible[0];
    double best_eft = std::numeric_limits<double>::infinity();
    for (const auto p : feasible) {
      // Earliest start considering predecessor data arrival. Link
      // occupancy is only probed here; committed after the winner is
      // chosen (standard HEFT approximation).
      double ready = 0.0;
      for (const auto& e : graph.edges()) {
        if (e.dst != t || e.delay != 0) continue;
        double arrival = finish[e.src];
        if (r.mapping[e.src] != p && e.bytes > 0.0) {
          arrival += e.bytes / ic.bandwidth_bytes_per_s + ic.latency_s;
        }
        ready = std::max(ready, arrival);
      }
      const double eft = std::max(ready, pe_free[p]) +
                         platform.pes[p].exec_seconds(graph.task(t));
      if (eft < best_eft) {
        best_eft = eft;
        best_pe = p;
      }
    }
    r.mapping[t] = best_pe;
    pe_free[best_pe] = best_eft;
    finish[t] = best_eft;
  }
  r.schedule = list_schedule(graph, platform, r.mapping);
  return r;
}

double objective(const Schedule& s, double energy_weight) {
  if (!s.feasible) return std::numeric_limits<double>::infinity();
  return s.makespan_s + energy_weight * s.energy_j;
}

MappingResult simulated_annealing(const TaskGraph& graph,
                                  const Platform& platform,
                                  const AnnealingParams& params) {
  common::Rng rng(params.seed);
  // Start from the greedy solution.
  MappingResult current = greedy_load_balance(graph, platform);
  if (!current.schedule.feasible) return current;
  MappingResult best = current;

  double temperature =
      params.initial_temperature * std::max(1e-9, current.schedule.makespan_s);
  for (int iter = 0; iter < params.iterations; ++iter) {
    // Move: reassign one random task to another feasible PE.
    Mapping candidate = current.mapping;
    const TaskId t = rng.next_below(graph.task_count());
    const auto feasible = feasible_pes(graph.task(t), platform);
    if (feasible.size() > 1) {
      std::size_t np;
      do {
        np = feasible[rng.next_below(feasible.size())];
      } while (np == candidate[t]);
      candidate[t] = np;
    }
    const Schedule sched = list_schedule(graph, platform, candidate);
    const double delta = objective(sched, params.energy_weight) -
                         objective(current.schedule, params.energy_weight);
    if (delta <= 0.0 ||
        rng.next_double() < std::exp(-delta / std::max(temperature, 1e-12))) {
      current.mapping = std::move(candidate);
      current.schedule = sched;
      if (objective(current.schedule, params.energy_weight) <
          objective(best.schedule, params.energy_weight)) {
        best = current;
      }
    }
    temperature *= params.cooling;
  }
  return best;
}

}  // namespace

MappingResult map_graph(const TaskGraph& graph, const Platform& platform,
                        MapperKind kind, const AnnealingParams& sa_params) {
  switch (kind) {
    case MapperKind::kRoundRobin:
      return round_robin(graph, platform);
    case MapperKind::kGreedyLoadBalance:
      return greedy_load_balance(graph, platform);
    case MapperKind::kHeft:
      return heft(graph, platform);
    case MapperKind::kSimulatedAnnealing:
      return simulated_annealing(graph, platform, sa_params);
  }
  return MappingResult{};
}

}  // namespace mmsoc::mpsoc
