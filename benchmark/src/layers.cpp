// Per-layer accounting shared by the workloads: engine, I/O boundary and
// stage metrics, and the ledger row.
#include <algorithm>
#include <cmath>

#include "workloads.h"

namespace mmsoc::bench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void EngineTotals::add(const runtime::SessionReport& r,
                       const mpsoc::TaskGraph& g) {
  for (mpsoc::TaskId t = 0; t < r.tasks.size(); ++t) {
    const runtime::TaskStats& ts = r.tasks[t];
    busy_s += ts.busy_s;
    output_firings += ts.firings * g.out_edges(t).size();
    if (!g.task(t).has_gate()) continue;
    auto it = std::find_if(gates.begin(), gates.end(),
                           [&](const auto& kv) { return kv.first == ts.name; });
    if (it == gates.end()) {
      gates.push_back({ts.name, {0.0, 0}});
      it = gates.end() - 1;
    }
    it->second.first += ts.io_stall_s;
    it->second.second += ts.firings;
  }
  recycled += r.payloads_recycled;
  migrations += r.task_migrations;
  max_occupancy = std::max(max_occupancy, r.max_channel_occupancy);
}

double EngineTotals::gate_wait_ms(const std::string& task) const {
  for (const auto& [name, v] : gates) {
    if (name == task) return ratio(v.first * 1e3, static_cast<double>(v.second));
  }
  return 0.0;
}

void IoTotals::add(const runtime::BoundaryStats& s) {
  errors += s.errors;
  retries += s.retries;
  recovered += s.recovered;
  max_buffered = std::max(max_buffered, s.max_buffered);
}

void add_engine_metrics(Metrics& m, const EngineTotals& e, std::size_t workers,
                        double wall_s, std::uint64_t steals,
                        const Telemetry* telemetry) {
  add_metric(m, "engine.worker_busy_share",
             ratio(e.busy_s, static_cast<double>(workers) * wall_s), "share");
  add_metric(m, "engine.steals_per_s", ratio(static_cast<double>(steals), wall_s),
             "1/s");
  add_metric(m, "engine.migrations", static_cast<double>(e.migrations), "count");
  add_metric(m, "engine.recycled_share",
             ratio(static_cast<double>(e.recycled),
                   static_cast<double>(e.output_firings)),
             "share");
  add_metric(m, "engine.max_channel_occupancy",
             static_cast<double>(e.max_occupancy), "count");
  if (telemetry == nullptr) return;
  // Counters are per engine prefix ("engine", "shard0", ...): sum them.
  std::uint64_t batches = 0, firings = 0, parks = 0;
  const auto ends_with = [](const std::string& s, const char* suffix) {
    const std::string x(suffix);
    return s.size() >= x.size() && s.compare(s.size() - x.size(), x.size(), x) == 0;
  };
  for (const auto& [name, v] : telemetry->metrics().snapshot().counters) {
    if (ends_with(name, ".batches")) batches += v;
    if (ends_with(name, ".firings")) firings += v;
    if (ends_with(name, ".parks")) parks += v;
  }
  add_metric(m, "engine.batches_per_s", ratio(static_cast<double>(batches), wall_s),
             "1/s");
  add_metric(m, "engine.firings_per_batch",
             ratio(static_cast<double>(firings), static_cast<double>(batches)),
             "count");
  add_metric(m, "engine.parks_per_s", ratio(static_cast<double>(parks), wall_s),
             "1/s");
}

void add_io_metrics(Metrics& m, const EngineTotals& e, const IoTotals& io,
                    std::uint64_t io_jobs, double io_busy_s,
                    double io_thread_seconds, std::uint64_t frames) {
  for (const auto& [task, v] : e.gates) {
    add_metric(m, "io.gate_wait_ms." + task, e.gate_wait_ms(task), "ms",
               v.second);
  }
  add_metric(m, "io.thread_busy_share", ratio(io_busy_s, io_thread_seconds),
             "share");
  add_metric(m, "io.jobs_per_unit",
             ratio(static_cast<double>(io_jobs), static_cast<double>(frames)),
             "count");
  add_metric(m, "io.max_buffered", static_cast<double>(io.max_buffered), "count");
  add_metric(m, "io.retries", static_cast<double>(io.retries), "count");
  add_metric(m, "io.recovered_share",
             ratio(static_cast<double>(io.recovered),
                   static_cast<double>(io.errors)),
             "share");
}

void add_stage_metrics(RunResult& r, const StageTable& stages,
                       const EngineTotals& e) {
  const double n = static_cast<double>(stages.journeys());
  JsonObject rows;
  double sum_ms = 0.0;
  for (const StageTable::Row& row : stages.rows()) {
    add_metric(r.per_layer, "stage." + row.task + ".service_us",
               row.mean_service_us(), "us", row.units);
    if (!row.source) {  // a source has no upstream to wait for
      add_metric(r.per_layer, "stage." + row.task + ".queue_wait_us",
                 row.mean_queue_us(), "us", row.units);
    }
    const double service_ms = ratio(row.path_service_ns, n) * 1e-6;
    const double wait_ms = ratio(row.path_queue_ns, n) * 1e-6;
    const double gate_ms = row.source ? 0.0 : e.gate_wait_ms(row.task);
    sum_ms += service_ms + wait_ms;
    rows.raw(row.task, JsonObject()
                           .num("queue_ms", wait_ms - gate_ms)
                           .num("gate_ms", gate_ms)
                           .num("service_ms", service_ms)
                           .render());
  }
  const double measured_ms = ratio(stages.journey_ns(), n) * 1e-6;
  const double error = ratio(std::abs(sum_ms - measured_ms), measured_ms);
  add_metric(r.per_layer, "ledger.latency_ms", measured_ms, "ms",
             stages.journeys());
  add_metric(r.per_layer, "ledger.sum_ms", sum_ms, "ms", stages.journeys());
  add_metric(r.per_layer, "ledger.error_share", error, "share");
  r.ledger = JsonObject()
                 .num("measured_ms", measured_ms)
                 .num("sum_ms", sum_ms)
                 .num("error_share", error)
                 .num("units", stages.journeys())
                 .raw("stages", rows.render())
                 .render();
  if (!(error <= 0.05)) {
    r.failures.push_back("ledger sum is not within 5% of the measured latency");
  }
}

}  // namespace mmsoc::bench
