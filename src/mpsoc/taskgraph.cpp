#include "mpsoc/taskgraph.h"

#include <queue>

namespace mmsoc::mpsoc {

using common::Result;
using common::Status;
using common::StatusCode;

TaskId TaskGraph::add_task(Task task) {
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

Status TaskGraph::add_edge(TaskId src, TaskId dst, double bytes,
                          std::size_t delay) {
  if (src >= tasks_.size() || dst >= tasks_.size()) {
    return Status(StatusCode::kInvalidArgument, "edge endpoint out of range");
  }
  if (src == dst) {
    return Status(StatusCode::kInvalidArgument, "self edge");
  }
  edges_.push_back(Edge{src, dst, bytes, delay});
  return Status::ok();
}

bool TaskGraph::fully_executable() const noexcept {
  for (const auto& t : tasks_) {
    if (!t.has_body()) return false;
  }
  return !tasks_.empty();
}

std::vector<std::size_t> TaskGraph::in_edges(TaskId id) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].dst == id) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> TaskGraph::out_edges(TaskId id) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].src == id) out.push_back(i);
  }
  return out;
}

std::vector<TaskId> TaskGraph::predecessors(TaskId id) const {
  std::vector<TaskId> out;
  for (const auto& e : edges_) {
    if (e.dst == id && e.delay == 0) out.push_back(e.src);
  }
  return out;
}

std::vector<TaskId> TaskGraph::successors(TaskId id) const {
  std::vector<TaskId> out;
  for (const auto& e : edges_) {
    if (e.src == id && e.delay == 0) out.push_back(e.dst);
  }
  return out;
}

Result<std::vector<TaskId>> TaskGraph::topological_order() const {
  std::vector<std::size_t> indegree(tasks_.size(), 0);
  for (const auto& e : edges_) {
    if (e.delay == 0) ++indegree[e.dst];
  }
  // Kahn's algorithm with a min-heap for deterministic order.
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (indegree[t] == 0) ready.push(t);
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    order.push_back(t);
    for (const auto& e : edges_) {
      if (e.src == t && e.delay == 0 && --indegree[e.dst] == 0) {
        ready.push(e.dst);
      }
    }
  }
  if (order.size() != tasks_.size()) {
    return Result<std::vector<TaskId>>(
        StatusCode::kInvalidArgument,
        "task graph has a cycle without a delay token");
  }
  return order;
}

double TaskGraph::total_work() const noexcept {
  double w = 0.0;
  for (const auto& t : tasks_) w += t.work_ops;
  return w;
}

double TaskGraph::total_traffic() const noexcept {
  double b = 0.0;
  for (const auto& e : edges_) b += e.bytes;
  return b;
}

}  // namespace mmsoc::mpsoc
