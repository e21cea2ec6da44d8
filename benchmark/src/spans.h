// Body-wrapping hooks. The benchmark times the program from outside: it
// wraps Task::body of a built session so each firing stamps its unit's
// start and/or end. Untraced runs stamp only source starts and the ends
// of sinks (plus any task whose end a workload reports, e.g. display);
// traced runs stamp every task, which yields per-stage spans.
//
// Stamps live in per-task vectors sized to the unit count before the
// session is submitted. A task fires on one worker at a time and the
// engine orders a task's migrations, so the vectors need no lock; read
// them only after the session completed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpsoc/taskgraph.h"

namespace mmsoc::bench {

struct UnitStamps {
  /// [task][unit] steady-clock ns; an empty vector = not stamped, 0 = the
  /// unit never reached that point.
  std::vector<std::vector<std::uint64_t>> start, end;
  mpsoc::TaskId source = 0;           ///< the graph's first source task
  std::vector<mpsoc::TaskId> sinks;   ///< tasks with no out-edges

  /// Latest end among the sinks for `unit` (0 if a sink never saw it).
  [[nodiscard]] std::uint64_t last_sink_end(std::uint64_t unit) const;
  [[nodiscard]] std::uint64_t source_start(std::uint64_t unit) const {
    return start[source][unit];
  }
  void release();  ///< free the stamp storage once folded into stats
};

/// Wrap bodies of `g`. With `every_task` all tasks get start and end
/// stamps; otherwise sources get start stamps and sinks plus `also_end`
/// get end stamps.
void instrument(mpsoc::TaskGraph& g, UnitStamps& stamps, std::uint64_t units,
                bool every_task, const std::vector<mpsoc::TaskId>& also_end = {});

/// Per-stage service and queue wait, accumulated over traced jobs, plus
/// the blocking-path ledger of each unit's journey.
///
/// Queue wait of (task, unit) is its start minus the latest end of its
/// upstream tasks for the same unit; sources have no upstream and report
/// none. A unit's journey runs from its source start to its last sink
/// end; walking back from that sink through the upstream task that ended
/// last splits the journey exactly into queue wait + service of the
/// stages on the path. Stages are keyed by task name in first-seen order.
class StageTable {
 public:
  void add(const mpsoc::TaskGraph& g, const UnitStamps& s, std::uint64_t units);

  struct Row {
    std::string task;
    bool source = false;
    std::uint64_t units = 0;     ///< units with a complete span at this stage
    double service_ns = 0.0;
    double queue_ns = 0.0;
    double path_service_ns = 0.0;  ///< only while on a blocking path
    double path_queue_ns = 0.0;
    [[nodiscard]] double mean_service_us() const;
    [[nodiscard]] double mean_queue_us() const;
  };
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] std::uint64_t journeys() const { return journeys_; }
  [[nodiscard]] double journey_ns() const { return journey_ns_; }

 private:
  Row& row(const mpsoc::TaskGraph& g, mpsoc::TaskId t);

  std::vector<Row> rows_;
  std::uint64_t journeys_ = 0;
  double journey_ns_ = 0.0;
};

/// Spans a trace file keeps (~15 MB of JSON); later ones are counted.
inline constexpr std::size_t kMaxTraceEvents = 100000;

/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing): one
/// track per task name holding its spans, and a "jobs" track holding job
/// and rung spans that parent them. Spans past kMaxTraceEvents are
/// dropped and counted.
class ChromeTrace {
 public:
  explicit ChromeTrace(std::uint64_t epoch_ns) : epoch_ns_(epoch_ns) {}

  /// A job or rung span; `parent` names the enclosing span ("" = none).
  void group_span(const std::string& name, std::uint64_t begin_ns,
                  std::uint64_t end_ns, const std::string& parent);
  /// Every stamped (task, unit) span of one job, parented by `job`.
  void task_spans(const mpsoc::TaskGraph& g, const UnitStamps& s,
                  std::uint64_t units, const std::string& job);

  [[nodiscard]] bool write(const std::string& path) const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  int track(const std::string& name);
  void span(int tid, const std::string& name, std::uint64_t b,
            std::uint64_t e, std::string args);

  std::uint64_t epoch_ns_;
  std::map<std::string, int> tracks_;
  std::vector<std::string> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace mmsoc::bench
