#include "runtime/trace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace mmsoc::runtime {

namespace {

// Spearman rank correlation between two equal-length series.
double rank_correlation(const std::vector<double>& a,
                        const std::vector<double>& b) {
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  double d2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = ra[i] - rb[i];
    d2 += d * d;
  }
  const double nn = static_cast<double>(n);
  return 1.0 - 6.0 * d2 / (nn * (nn * nn - 1.0));
}

}  // namespace

ModelComparison compare_with_schedule(const SessionReport& measured,
                                      const mpsoc::TaskGraph& graph,
                                      const mpsoc::Platform& platform,
                                      const mpsoc::Mapping& mapping,
                                      const mpsoc::Schedule& predicted) {
  ModelComparison c;
  c.predicted_makespan_s = predicted.makespan_s;
  c.predicted_ii_s = predicted.initiation_interval_s();
  c.measured_wall_s = measured.wall_s;
  c.measured_ii_s = measured.measured_ii_s();
  c.ii_error_ratio =
      c.predicted_ii_s > 0.0 ? c.measured_ii_s / c.predicted_ii_s : 0.0;

  double predicted_sum = 0.0;
  double measured_sum = 0.0;
  std::vector<double> pred_series, meas_series;
  // The calibration-loop vector: per-TaskId mean body time. Same numbers
  // mean_firing_s() yields, consumed through the API the loop uses so the
  // table and the calibrator can never drift apart.
  const std::vector<double> service = measured.mean_service_times();
  const UnitTraceReport& ut = measured.unit_trace;
  for (mpsoc::TaskId t = 0; t < graph.task_count(); ++t) {
    StageComparison s;
    s.name = graph.task(t).name;
    // Logical-PE attribution: predicted cost comes from the *mapped* PE;
    // measured cost comes from the same TaskId regardless of which
    // worker the runqueue scheduler executed it on.
    s.pe = t < mapping.size() ? mapping[t] : 0;
    s.predicted_s = s.pe < platform.pes.size()
                        ? std::max(0.0, platform.pes[s.pe].exec_seconds(graph.task(t)))
                        : 0.0;
    if (t < measured.tasks.size()) {
      s.measured_mean_s = t < service.size() ? service[t] : 0.0;
      s.worker = measured.tasks[t].worker;
      s.migrations = measured.tasks[t].migrations;
      // Kept out of measured_mean_s (the engine bills gate waits to
      // io_stall, never busy), so shares and rank correlation keep
      // comparing compute against predicted compute.
      s.io_wait_s = measured.tasks[t].mean_io_stall_s();
    }
    if (ut.enabled() && t < ut.stages.size()) {
      s.unit_sampled = ut.stages[t].sampled;
      s.unit_queue_wait_s = ut.stages[t].mean_queue_wait_s();
      s.unit_service_s = ut.stages[t].mean_service_s();
    }
    predicted_sum += s.predicted_s;
    measured_sum += s.measured_mean_s;
    pred_series.push_back(s.predicted_s);
    meas_series.push_back(s.measured_mean_s);
    c.stages.push_back(std::move(s));
  }
  for (auto& s : c.stages) {
    s.predicted_share = predicted_sum > 0.0 ? s.predicted_s / predicted_sum : 0.0;
    s.measured_share = measured_sum > 0.0 ? s.measured_mean_s / measured_sum : 0.0;
  }
  c.stage_rank_correlation = rank_correlation(pred_series, meas_series);
  if (ut.enabled() && ut.sampled_completed > 0) {
    c.sampled_units = ut.sampled_completed;
    c.measured_mean_latency_s = ut.mean_latency_s();
    c.measured_p50_latency_s = ut.p50_s();
    c.measured_p99_latency_s = ut.p99_s();
    if (c.predicted_makespan_s > 0.0) {
      c.latency_error_ratio = c.measured_mean_latency_s / c.predicted_makespan_s;
    }
  }
  return c;
}

std::string format_comparison(const ModelComparison& c) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "%-20s %4s %4s %4s %12s %12s %10s %10s %10s %8s %8s\n",
                "stage", "pe", "wkr", "mig", "pred us", "meas us",
                "io-wait us", "q-wait us", "svc us", "pred %", "meas %");
  out += line;
  // The frame-journey columns of a stage no sampled unit reached (or
  // with tracing off) render as '-': a 0.00 here would read as an
  // impossibly fast firing.
  char qw_col[24], svc_col[24];
  for (const auto& s : c.stages) {
    if (s.unit_sampled == 0) {
      std::snprintf(qw_col, sizeof qw_col, "%10s", "-");
      std::snprintf(svc_col, sizeof svc_col, "%10s", "-");
    } else {
      std::snprintf(qw_col, sizeof qw_col, "%10.2f", s.unit_queue_wait_s * 1e6);
      std::snprintf(svc_col, sizeof svc_col, "%10.2f", s.unit_service_s * 1e6);
    }
    std::snprintf(line, sizeof line,
                  "%-20s %4zu %4zu %4llu %12.2f %12.2f %10.2f %s %s "
                  "%7.1f%% %7.1f%%\n",
                  s.name.c_str(), s.pe, s.worker,
                  static_cast<unsigned long long>(s.migrations),
                  s.predicted_s * 1e6, s.measured_mean_s * 1e6,
                  s.io_wait_s * 1e6, qw_col, svc_col,
                  s.predicted_share * 100.0, s.measured_share * 100.0);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "predicted II %.3f ms | measured II %.3f ms | "
                "error ratio %.2fx | stage rank corr %.2f\n",
                c.predicted_ii_s * 1e3, c.measured_ii_s * 1e3,
                c.ii_error_ratio, c.stage_rank_correlation);
  out += line;
  if (c.sampled_units > 0) {
    std::snprintf(line, sizeof line,
                  "frame latency (%llu sampled): mean %.3f ms | p50 %.3f ms | "
                  "p99 %.3f ms | predicted makespan %.3f ms | ratio %.2fx\n",
                  static_cast<unsigned long long>(c.sampled_units),
                  c.measured_mean_latency_s * 1e3, c.measured_p50_latency_s * 1e3,
                  c.measured_p99_latency_s * 1e3, c.predicted_makespan_s * 1e3,
                  c.latency_error_ratio);
    out += line;
  }
  return out;
}

}  // namespace mmsoc::runtime
