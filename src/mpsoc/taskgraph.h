// Application task graphs for MPSoC mapping.
//
// The paper's thesis is that multimedia applications are "sophisticated
// collections [of] multiple algorithms" (§8) running on multiprocessor
// systems-on-chips (§1). A TaskGraph captures one iteration (one frame /
// granule) of such an application: nodes are algorithm stages with an
// operation count and per-processor-kind affinities; edges carry the data
// volumes flowing between stages. A *delay edge* (SDF: a channel that
// starts out holding `delay` tokens) carries data from one iteration into
// a later one, e.g. the reconstructed frame i-1 into the motion estimator
// of frame i in Fig. 1. Delay edges are traffic, not same-iteration
// precedence: the graph must be acyclic once they are cut.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace mmsoc::mpsoc {

/// Processor classes available in consumer SoCs.
enum class PeKind : std::uint8_t { kRisc, kDsp, kAccelerator };

[[nodiscard]] constexpr const char* to_string(PeKind kind) noexcept {
  switch (kind) {
    case PeKind::kRisc: return "RISC";
    case PeKind::kDsp: return "DSP";
    case PeKind::kAccelerator: return "ACCEL";
  }
  return "?";
}

using TaskId = std::size_t;

/// Bytes flowing along one edge for one graph iteration when the graph is
/// *executed* (src/runtime) rather than analytically scheduled.
using Payload = std::vector<std::uint8_t>;

/// One firing of a task: the runtime hands the body one payload per
/// inbound edge and collects one payload per outbound edge. Edge order is
/// the order the edges were added to the graph (restricted to this task),
/// i.e. TaskGraph::in_edges / out_edges.
///
/// Output buffer contract: each outputs[k] arrives *empty* (size 0) but
/// may carry warmed-up capacity — the runtime recycles consumed channel
/// buffers back to producers (see runtime/engine.h). A body that fills
/// outputs in place (store(), resize+write, assign) therefore allocates
/// nothing in steady state; a body that assigns a freshly built vector
/// stays correct but forgoes the reuse. Stale bytes never leak: the
/// runtime clears every buffer before handing it over.
struct TaskFiring {
  std::uint64_t iteration = 0;
  std::vector<const Payload*> inputs;  ///< one per in-edge, never null
  std::vector<Payload> outputs;        ///< one per out-edge, body fills

  /// Fill out-edge `k` in place from raw memory — the allocation-free
  /// way to emit a payload (reuses the recycled buffer's capacity).
  /// assign() writes each byte once; resize-then-copy would zero-fill
  /// first and double-write the whole payload.
  void store(std::size_t k, const void* data, std::size_t bytes) {
    if (bytes == 0) {
      outputs[k].clear();
      return;
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    outputs[k].assign(p, p + bytes);
  }

  /// store() for a typed array: count elements of T, reinterpreted as
  /// bytes (payload storage is max-aligned, so the consumer may view it
  /// as T again).
  template <typename T>
  void store_array(std::size_t k, const T* data, std::size_t count) {
    store(k, data, count * sizeof(T));
  }
};

/// Executable hook: called once per iteration, in iteration order, always
/// from a single thread. Bodies may keep state in their closure (e.g. a
/// reference frame); cross-task communication must go through payloads.
using TaskBody = std::function<void(TaskFiring&)>;

/// External-readiness gate for asynchronous boundary tasks (I/O sources
/// and sinks). When set, the runtime fires the task only while the gate
/// returns true *in addition to* the usual channel conditions — a source
/// whose device read hasn't completed (or a sink whose device buffer is
/// full) parks its worker instead of blocking it. The gate is polled from
/// the owning worker and from work-stealing peers concurrently with the
/// I/O threads that open it, so it must be thread-safe and cheap (an
/// atomic load, not a lock or a syscall). Time spent channel-ready but
/// gate-closed is attributed as I/O stall in TaskStats.
using TaskGate = std::function<bool()>;

/// Optional frame-journey origin hook for *source* tasks (no in-edges).
/// When the runtime samples unit `unit` for tracing it asks the hook for
/// the unit's origin timestamp in Telemetry::now_ns() nanoseconds — an
/// I/O-backed source returns the instant the device read completed (so
/// end-to-end latency includes the time a frame sat buffered at the
/// boundary), a synthetic source returns 0 to mean "stamp me at firing
/// start". Called from the owning worker, under the same single-thread
/// discipline as the body; must be cheap and thread-safe against the I/O
/// threads that record the stamps.
using UnitOriginFn = std::function<std::uint64_t(std::uint64_t unit)>;

struct Task {
  std::string name;
  double work_ops = 0.0;  ///< operations for one graph iteration

  /// Speedup of each PE kind relative to a scalar RISC executing
  /// work_ops at 1 op/cycle. Missing kinds default to kRisc's value.
  std::map<PeKind, double> affinity = {{PeKind::kRisc, 1.0}};

  /// Non-empty: only an accelerator with a matching tag gets the
  /// kAccelerator affinity (a DCT engine does not accelerate VLC).
  std::string accel_tag;

  /// Optional executable body (empty for analytic-only graphs). The
  /// dataflow runtime refuses to run graphs with body-less tasks.
  TaskBody body;

  /// Optional boundary gate (empty for pure compute tasks).
  TaskGate gate;

  /// Optional unit-origin hook for source tasks (see UnitOriginFn).
  UnitOriginFn origin;

  [[nodiscard]] bool has_body() const noexcept {
    return static_cast<bool>(body);
  }
  [[nodiscard]] bool has_gate() const noexcept {
    return static_cast<bool>(gate);
  }
  [[nodiscard]] bool has_origin() const noexcept {
    return static_cast<bool>(origin);
  }
};

struct Edge {
  TaskId src = 0;
  TaskId dst = 0;
  double bytes = 0.0;      ///< data transferred per iteration
  std::size_t delay = 0;   ///< initial tokens: dst's iteration i reads src's i - delay
};

class TaskGraph {
 public:
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  TaskId add_task(Task task);
  common::Status add_edge(TaskId src, TaskId dst, double bytes,
                          std::size_t delay = 0);

  /// Attach (or replace) the executable body of `id`.
  void set_body(TaskId id, TaskBody body) { tasks_[id].body = std::move(body); }

  /// Attach (or replace) the boundary gate of `id` (see TaskGate).
  void set_gate(TaskId id, TaskGate gate) { tasks_[id].gate = std::move(gate); }

  /// Attach (or replace) the unit-origin hook of `id` (see UnitOriginFn).
  void set_origin(TaskId id, UnitOriginFn origin) {
    tasks_[id].origin = std::move(origin);
  }

  /// True when every task carries an executable body.
  [[nodiscard]] bool fully_executable() const noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] const Task& task(TaskId id) const { return tasks_[id]; }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Same-iteration neighbours: delay edges are skipped.
  [[nodiscard]] std::vector<TaskId> predecessors(TaskId id) const;
  [[nodiscard]] std::vector<TaskId> successors(TaskId id) const;

  /// Indices into edges() of the edges into / out of `id`, delay edges
  /// included, in insertion order — the payload order a TaskBody sees.
  [[nodiscard]] std::vector<std::size_t> in_edges(TaskId id) const;
  [[nodiscard]] std::vector<std::size_t> out_edges(TaskId id) const;

  /// Topological order over the delay-free edges; empty + error if a
  /// cycle carries no delay token.
  [[nodiscard]] common::Result<std::vector<TaskId>> topological_order() const;

  [[nodiscard]] bool is_acyclic() const {
    return topological_order().is_ok();
  }

  /// Total work across all tasks (RISC-normalized ops).
  [[nodiscard]] double total_work() const noexcept;

  /// Total bytes across all edges, delay edges included.
  [[nodiscard]] double total_traffic() const noexcept;

 private:
  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
};

}  // namespace mmsoc::mpsoc
