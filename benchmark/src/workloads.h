// The four workloads and what every run reports.
//
//  fig1_encode       closed loop, Fig. 1 encoder at CIF: kernels + stage glue
//  audio_fleet       closed loop, Fig. 2 encoder fleet: engine dispatch
//  transcode_upload  open loop, disk transcodes with faults: I/O + admission
//  live_relay        open loop ladder of real-time RTP streams: I/O threads
//
// A run first sets up (reference digests, session builds) several times
// and keeps the median as setup_s, then offers load for the measured
// window. Untraced runs stamp only source starts and sink ends; a traced
// run stamps every task and turns on the program's telemetry counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/engine.h"
#include "runtime/io.h"
#include "spans.h"

namespace mmsoc::bench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 15.0;   ///< measured window (workloads scale from it)
  bool traced = false;
  std::string trace_path;  ///< Chrome trace output of a traced run
};

/// What the kernel and codec probes run on: the workload's frame size
/// and the scene seed of its first corpus entry.
struct ProbeInput {
  int width = 176;
  int height = 144;
  std::uint64_t scene_seed = 1;
};

struct RunResult {
  Metrics end_to_end;
  Metrics per_layer;
  Tally jobs;
  std::vector<std::string> failures;  ///< failed checks, human-readable
  JsonObject windows;                 ///< the run's load parameters
  std::string ledger;                 ///< ledger row (traced runs)
  ProbeInput probe;
  /// The figure trace.overhead_share compares between untraced and
  /// traced runs: units_per_s on closed loops, p50 latency on open ones.
  double overhead_basis = 0.0;
  bool overhead_higher_is_better = true;
};

using WorkloadFn = RunResult (*)(const RunOptions&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

RunResult run_fig1_encode(const RunOptions& opt);
RunResult run_audio_fleet(const RunOptions& opt);
RunResult run_transcode_upload(const RunOptions& opt);
RunResult run_live_relay(const RunOptions& opt);

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fig1_encode", run_fig1_encode},
      {"audio_fleet", run_audio_fleet},
      {"transcode_upload", run_transcode_upload},
      {"live_relay", run_live_relay},
  };
  return all;
}

/// Kernel and codec timings on the workload's own frames and PCM.
void run_probes(const ProbeInput& in, Metrics& out);

/// Reference outputs of contents 0..n-1, computed concurrently by
/// `run(k)` (each alone on a 1-worker engine). A reference that cannot be
/// produced is recorded in r.failures and yields an empty vector.
template <typename T, typename Fn>
std::vector<T> references(std::size_t n, Fn run, RunResult& r) {
  std::vector<std::optional<common::Result<T>>> got(n);
  parallel_for(n, [&](std::size_t k) { got[k].emplace(run(k)); });
  std::vector<T> out;
  for (auto& g : got) {
    if (!g->is_ok()) {
      r.failures.push_back("reference run failed: " + g->status().to_text());
      return {};
    }
    out.push_back(g->value());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer accounting shared by the workloads
// ---------------------------------------------------------------------------

/// Engine layer totals over every session of a run.
struct EngineTotals {
  double busy_s = 0.0;
  std::uint64_t output_firings = 0;  ///< firings x out-edges
  std::uint64_t recycled = 0;
  std::uint64_t migrations = 0;
  std::size_t max_occupancy = 0;
  /// Boundary tasks: name -> (gate wait s, firings).
  std::vector<std::pair<std::string, std::pair<double, std::uint64_t>>> gates;

  void add(const runtime::SessionReport& r, const mpsoc::TaskGraph& g);
  [[nodiscard]] double gate_wait_ms(const std::string& task) const;
};

/// Boundary adapter totals (both directions).
struct IoTotals {
  std::uint64_t errors = 0;
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::size_t max_buffered = 0;
  void add(const runtime::BoundaryStats& s);
};

/// engine.* metrics. `telemetry` (traced runs) adds the counter-derived
/// rates; `wall_s` is the engines' summed running time and `workers` the
/// worker count they ran.
void add_engine_metrics(Metrics& m, const EngineTotals& e, std::size_t workers,
                        double wall_s, std::uint64_t steals,
                        const Telemetry* telemetry);

/// io.* metrics from the contexts' job/busy stats and adapter totals.
void add_io_metrics(Metrics& m, const EngineTotals& e, const IoTotals& io,
                    std::uint64_t io_jobs, double io_busy_s,
                    double io_thread_seconds, std::uint64_t frames);

/// stage.<task>.* metrics and the ledger row: the mean unit journey
/// against the sum of queue wait, gate wait and service along its
/// blocking path. Gate wait is the engine's mean boundary stall per
/// firing, carved out of the measured queue wait.
void add_stage_metrics(RunResult& r, const StageTable& stages,
                       const EngineTotals& e);

}  // namespace mmsoc::bench
