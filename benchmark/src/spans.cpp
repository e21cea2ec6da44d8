#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "harness.h"

namespace mmsoc::bench {

using mpsoc::TaskGraph;
using mpsoc::TaskId;

std::uint64_t UnitStamps::last_sink_end(std::uint64_t unit) const {
  std::uint64_t last = 0;
  for (const TaskId t : sinks) {
    if (end[t][unit] == 0) return 0;
    last = std::max(last, end[t][unit]);
  }
  return last;
}

void UnitStamps::release() {
  start.clear();
  start.shrink_to_fit();
  end.clear();
  end.shrink_to_fit();
}

void instrument(TaskGraph& g, UnitStamps& stamps, std::uint64_t units,
                bool every_task, const std::vector<TaskId>& also_end) {
  stamps.start.assign(g.task_count(), {});
  stamps.end.assign(g.task_count(), {});
  stamps.sinks.clear();
  bool have_source = false;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const bool source = g.in_edges(t).empty();
    const bool sink = g.out_edges(t).empty();
    if (source && !have_source) {
      stamps.source = t;
      have_source = true;
    }
    if (sink) stamps.sinks.push_back(t);
    const bool extra =
        std::find(also_end.begin(), also_end.end(), t) != also_end.end();
    if (every_task || source) stamps.start[t].assign(units, 0);
    if (every_task || sink || extra) stamps.end[t].assign(units, 0);
    std::uint64_t* st = stamps.start[t].empty() ? nullptr : stamps.start[t].data();
    std::uint64_t* en = stamps.end[t].empty() ? nullptr : stamps.end[t].data();
    if (st == nullptr && en == nullptr) continue;
    g.set_body(t, [inner = g.task(t).body, st, en](mpsoc::TaskFiring& f) {
      if (st != nullptr) st[f.iteration] = now_ns();
      inner(f);
      if (en != nullptr) en[f.iteration] = now_ns();
    });
  }
}

double StageTable::Row::mean_service_us() const {
  return units > 0 ? service_ns / static_cast<double>(units) * 1e-3 : 0.0;
}

double StageTable::Row::mean_queue_us() const {
  return units > 0 ? queue_ns / static_cast<double>(units) * 1e-3 : 0.0;
}

StageTable::Row& StageTable::row(const TaskGraph& g, TaskId t) {
  const std::string& name = g.task(t).name;
  for (Row& r : rows_) {
    if (r.task == name) return r;
  }
  rows_.push_back(Row{name, g.in_edges(t).empty()});
  return rows_.back();
}

void StageTable::add(const TaskGraph& g, const UnitStamps& s,
                     std::uint64_t units) {
  const std::size_t n = g.task_count();
  std::vector<std::vector<TaskId>> preds(n);
  for (TaskId t = 0; t < n; ++t) {
    if (s.start[t].empty() || s.end[t].empty()) return;  // traced jobs only
    (void)row(g, t);
    preds[t] = g.predecessors(t);
  }
  std::vector<Row*> row_of(n);  // rows_ no longer grows below
  for (TaskId t = 0; t < n; ++t) row_of[t] = &row(g, t);
  // Latest-ending upstream task of (t, u); n when t is a source.
  const auto blocker = [&](TaskId t, std::uint64_t u) {
    TaskId best = n;
    for (const TaskId p : preds[t]) {
      if (best == n || s.end[p][u] > s.end[best][u]) best = p;
    }
    return best;
  };
  for (std::uint64_t u = 0; u < units; ++u) {
    bool complete = true;
    for (TaskId t = 0; t < n; ++t) {
      complete = complete && s.start[t][u] != 0 && s.end[t][u] != 0;
    }
    if (!complete) continue;
    for (TaskId t = 0; t < n; ++t) {
      Row& r = *row_of[t];
      ++r.units;
      r.service_ns += static_cast<double>(s.end[t][u] - s.start[t][u]);
      const TaskId p = blocker(t, u);
      if (p != n) {
        r.queue_ns += static_cast<double>(s.start[t][u]) -
                      static_cast<double>(s.end[p][u]);
      }
    }
    TaskId last = s.sinks.front();
    for (const TaskId t : s.sinks) {
      if (s.end[t][u] > s.end[last][u]) last = t;
    }
    ++journeys_;
    journey_ns_ += static_cast<double>(s.end[last][u]) -
                   static_cast<double>(s.start[s.source][u]);
    for (TaskId t = last;;) {
      Row& r = *row_of[t];
      r.path_service_ns += static_cast<double>(s.end[t][u] - s.start[t][u]);
      const TaskId p = blocker(t, u);
      if (p == n) break;
      r.path_queue_ns += static_cast<double>(s.start[t][u]) -
                         static_cast<double>(s.end[p][u]);
      t = p;
    }
  }
}

int ChromeTrace::track(const std::string& name) {
  const auto it = tracks_.find(name);
  if (it != tracks_.end()) return it->second;
  const int tid = static_cast<int>(tracks_.size()) + 1;
  tracks_.emplace(name, tid);
  return tid;
}

void ChromeTrace::span(int tid, const std::string& name, std::uint64_t b,
                       std::uint64_t e, std::string args) {
  if (events_.size() >= kMaxTraceEvents) {
    ++dropped_;
    return;
  }
  const double ts = (static_cast<double>(b) - static_cast<double>(epoch_ns_)) * 1e-3;
  const double dur = (static_cast<double>(e) - static_cast<double>(b)) * 1e-3;
  JsonObject o;
  o.str("name", name).str("ph", "X").num("pid", std::uint64_t{1})
      .num("tid", static_cast<std::uint64_t>(tid)).num("ts", ts)
      .num("dur", dur).raw("args", std::move(args));
  events_.push_back(o.render());
}

void ChromeTrace::group_span(const std::string& name, std::uint64_t begin_ns,
                             std::uint64_t end_ns, const std::string& parent) {
  JsonObject args;
  if (!parent.empty()) args.str("parent", parent);
  span(track("jobs"), name, begin_ns, end_ns, args.render());
}

void ChromeTrace::task_spans(const TaskGraph& g, const UnitStamps& s,
                             std::uint64_t units, const std::string& job) {
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (s.start[t].empty() || s.end[t].empty()) continue;
    const int tid = track(g.task(t).name);
    for (std::uint64_t u = 0; u < units; ++u) {
      if (s.start[t][u] == 0 || s.end[t][u] == 0) continue;
      JsonObject args;
      args.str("parent", job).num("unit", u);
      span(tid, g.task(t).name, s.start[t][u], s.end[t][u], args.render());
    }
  }
}

bool ChromeTrace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const auto& [name, tid] : tracks_) {
    JsonObject meta;
    meta.str("name", "thread_name").str("ph", "M").num("pid", std::uint64_t{1})
        .num("tid", static_cast<std::uint64_t>(tid))
        .raw("args", JsonObject().str("name", name).render());
    std::fprintf(f, "%s%s", first ? "" : ",\n", meta.render().c_str());
    first = false;
  }
  for (const std::string& e : events_) {
    std::fprintf(f, "%s%s", first ? "" : ",\n", e.c_str());
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace mmsoc::bench
