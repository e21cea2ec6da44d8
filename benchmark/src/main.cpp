// mmsoc_bench — the repository's end-to-end benchmark.
//
//   mmsoc_bench --workload=<name> --seed=<n> [--seconds=<s>] [--trace=<path>]
//   mmsoc_bench --selftest
//
// Prints one JSON object: the run's metrics by name, unit and sample
// count, its load parameters and provenance. Exits 1 if any output check
// failed, 2 on bad usage or a host with fewer than 4 CPUs (the workloads
// use fixed thread counts so numbers compare across hosts).
//
// Without --trace the run reports end-to-end metrics and carries no
// tracing beyond the source-start / sink-end stamps. With --trace it runs
// the workload twice — untraced, then with every task stamped and the
// program's telemetry counters on — adds kernel and codec probes, writes
// the spans as Chrome-trace JSON to <path>, and reports per-layer metrics
// plus trace.overhead_share, the traced run's cost against the untraced.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

#include "dsp/dispatch.h"
#include "workloads.h"

#ifndef MMSOC_BENCH_BUILD_TYPE
#define MMSOC_BENCH_BUILD_TYPE "unknown"
#endif

namespace mmsoc::bench {
int run_selftest();
}

namespace {

using namespace mmsoc::bench;

constexpr unsigned kRequiredCpus = 4;

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string provenance(const RunOptions& opt) {
  return JsonObject()
      .num("nproc", static_cast<std::uint64_t>(usable_cpus()))
      .str("cpu_model", cpu_model())
      .str("simd_level", std::string(mmsoc::dsp::simd_level_name(
                             mmsoc::dsp::active_simd_level())))
      .str("git_rev", env_or("MMSOC_BENCH_GIT_REV", "unknown"))
      .str("git_dirty", env_or("MMSOC_BENCH_GIT_DIRTY", "unknown"))
      .num("seed", opt.seed)
      .num("seconds", opt.seconds)
      .str("build_type", MMSOC_BENCH_BUILD_TYPE)
      .str("compiler", __VERSION__)
      .str("timestamp", utc_now())
      .render();
}

int usage() {
  std::fprintf(stderr,
               "usage: mmsoc_bench --workload=<name> --seed=<n> [--seconds=<s>] "
               "[--trace=<path>]\n       mmsoc_bench --selftest\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_value(const std::string& arg, const char* flag, std::string& out) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  g_process_start_ns = now_ns();
  std::string workload, seed = "1", seconds = "15", trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (!parse_value(a, "--workload", workload) && !parse_value(a, "--seed", seed) &&
        !parse_value(a, "--seconds", seconds) && !parse_value(a, "--trace", trace_path)) {
      return usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (workload == w.name) wl = &w;
  }
  if (wl == nullptr) return usage();
  RunOptions opt;
  try {
    opt.seed = std::stoull(seed);
    opt.seconds = std::stod(seconds);
  } catch (const std::exception&) {
    return usage();
  }
  if (!(opt.seconds >= 1.0 && opt.seconds <= 60.0)) return usage();
  if (const unsigned cpus = usable_cpus(); cpus < kRequiredCpus) {
    std::fprintf(stderr, "mmsoc_bench: %u usable CPUs, need %u (fixed thread counts)\n",
                 cpus, kRequiredCpus);
    return 2;
  }

  RunResult result = wl->run(opt);
  Metrics end_to_end = result.end_to_end;
  JsonObject windows = result.windows;
  if (!trace_path.empty()) {
    RunOptions traced = opt;
    traced.traced = true;
    traced.trace_path = trace_path;
    RunResult base = std::move(result);
    result = wl->run(traced);
    run_probes(result.probe, result.per_layer);
    const double t = result.overhead_basis;
    const double u = base.overhead_basis;
    add_metric(result.per_layer, "trace.overhead_share",
               base.overhead_higher_is_better ? 1.0 - t / u : t / u - 1.0, "share");
    result.jobs.attempted += base.jobs.attempted;
    result.jobs.failed += base.jobs.failed;
    result.failures.insert(result.failures.begin(), base.failures.begin(),
                           base.failures.end());
  }

  for (const Metric& m : end_to_end) {
    if (!std::isfinite(m.value)) result.failures.push_back("metric " + m.name + " is not finite");
  }
  std::string checks = "[";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    checks += (i > 0 ? ", " : "") + json_string(result.failures[i]);
  }
  checks += "]";
  const bool correct = result.failures.empty() && result.jobs.failed == 0;
  JsonObject out;
  out.str("benchmark", "mmsoc_bench")
      .str("workload", wl->name)
      .boolean("traced", !trace_path.empty())
      .raw("provenance", provenance(opt))
      .raw("windows", windows.render())
      .boolean("correct", correct)
      .num("attempted", result.jobs.attempted)
      .num("failed", result.jobs.failed)
      .raw("failed_checks", checks)
      .raw("end_to_end", json_metrics(end_to_end))
      .raw("per_layer", json_metrics(result.per_layer));
  if (!trace_path.empty()) {
    out.raw("ledger", result.ledger.empty() ? "null" : result.ledger)
        .str("trace_file", trace_path);
  }
  std::printf("%s\n", out.render().c_str());
  return correct ? 0 : 1;
}
