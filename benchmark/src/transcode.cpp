// transcode_upload — open loop: transcode jobs arrive as a seeded Poisson
// stream at 10 jobs/s. Each job is a file transcode session (QCIF, 16
// frames) reading from and writing to a modeled disk in real time under a
// light seeded fault plan, so it exercises disk reads beside writes,
// retry/backoff, admission into a 2-shard front-end, and decode+encode,
// at about 40% load on the single I/O thread.
//
// A job's latency runs from its scheduled arrival (not its submit) to the
// end of its last block-write firing, so a late generator or a slow
// admission shows up in it. Arrivals in the first second warm up and are
// not measured.
#include <memory>

#include "runtime/pipelines.h"
#include "workloads.h"

namespace mmsoc::bench {

namespace {

using runtime::SessionOutcome;

constexpr double kRateHz = 10.0;
constexpr double kWarmupS = 1.0;
constexpr std::uint64_t kFrames = 16;
constexpr std::size_t kContents = 8;

struct Job {
  // The injector is borrowed by the session's boundary wrappers, so it is
  // declared first and destroyed last.
  std::unique_ptr<runtime::FaultInjector> injector;
  std::unique_ptr<runtime::FileTranscodeSession> session;
  std::size_t content = 0;
  double arrival_s = 0.0;
  UnitStamps stamps;
  runtime::SessionTicket ticket;
  bool admitted = false;
  JobEnd end = JobEnd::kCompleted;
  Digest got;
};

runtime::TranscodeSessionConfig job_config(std::uint64_t scene_seed) {
  runtime::TranscodeSessionConfig cfg;
  cfg.width = 176;
  cfg.height = 144;
  cfg.frames = kFrames;
  cfg.seed = scene_seed;
  return cfg;
}

Digest digest_of(const runtime::FileTranscodeSession& s) {
  return Digest{s.state->out_crc, s.state->bytes_out, s.state->frames_encoded,
                s.state->frames_decoded};
}

/// The job alone on a 1-worker engine, no faults, no modeled latency.
common::Result<Digest> reference(std::uint64_t scene_seed) {
  runtime::IoContext io;
  runtime::EngineOptions eo;
  eo.workers = 1;
  runtime::Engine engine(eo);
  if (auto st = engine.start(); !st.is_ok()) return common::Result<Digest>(st);
  auto made = runtime::make_file_transcode_session(io, job_config(scene_seed));
  if (!made.is_ok()) return common::Result<Digest>(made.status());
  runtime::FileTranscodeSession& s = made.value();
  auto id = s.submit_to(engine, runtime::round_robin_mapping(s.graph, 1));
  if (!id.is_ok()) return common::Result<Digest>(id.status());
  if (auto st = engine.wait(); !st.is_ok()) return common::Result<Digest>(st);
  s.finish();
  if (engine.report(id.value()).outcome != SessionOutcome::kCompleted) {
    return common::Result<Digest>(
        common::Status(common::StatusCode::kInternal, "reference did not complete"));
  }
  return common::Result<Digest>(digest_of(s));
}

}  // namespace

RunResult run_transcode_upload(const RunOptions& opt) {
  RunResult r;
  r.probe = {176, 144, corpus_seed(0)};
  r.overhead_higher_is_better = false;

  std::vector<double> arrivals = poisson_arrivals(opt.seed, kRateHz, kWarmupS);
  for (const double t : poisson_arrivals(opt.seed + 0x5eed, kRateHz, opt.seconds)) {
    arrivals.push_back(kWarmupS + t);
  }

  runtime::FaultPlan read_plan;
  read_plan.read_error_rate = 0.10;
  read_plan.latency_spike_rate = 0.02;
  read_plan.latency_spike_us = 200.0;
  runtime::FaultPlan write_plan;
  write_plan.write_error_rate = 0.05;
  write_plan.latency_spike_rate = 0.02;
  write_plan.latency_spike_us = 200.0;

  std::unique_ptr<Telemetry> telemetry;
  if (opt.traced) {
    TelemetryOptions to;
    to.unit_sample_period = 0;
    to.watchdog_periods = 0;
    telemetry = std::make_unique<Telemetry>(to);
  }
  runtime::IoContextOptions io_opts;
  io_opts.threads = 1;
  runtime::IoContext io(io_opts);
  runtime::ShardedEngineOptions so;
  so.shards = 2;
  so.max_sessions_per_shard = 8;
  so.engine.workers = 1;
  so.engine.telemetry = telemetry.get();
  runtime::ShardedEngine sharded(so);
  // Sessions hold raw references to `sharded` and `io`: declared after them.
  std::vector<Job> jobs;

  // ---- set-up: references + every job of the schedule, repeated ----
  std::vector<Digest> refs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 =
        rep == 0 && g_process_start_ns != 0 ? g_process_start_ns : now_ns();
    std::vector<Digest> rep_refs = references<Digest>(
        kContents,
        [&](std::size_t k) { return reference(corpus_seed(k)); }, r);
    if (rep_refs.empty()) return r;
    if (!refs.empty() && rep_refs != refs) {
      r.failures.push_back("reference digests differ between set-ups");
    }
    refs = std::move(rep_refs);
    jobs.clear();
    jobs.resize(arrivals.size());
    std::vector<common::Status> built(arrivals.size());
    parallel_for(arrivals.size(), [&](std::size_t i) {
      Job& j = jobs[i];
      j.content = i % kContents;
      j.arrival_s = arrivals[i];
      const std::uint64_t seed = job_seed(opt.seed, i);
      j.injector = std::make_unique<runtime::FaultInjector>(seed);
      runtime::TranscodeSessionConfig cfg = job_config(corpus_seed(j.content));
      cfg.time_scale = 1.0;
      cfg.fault = j.injector.get();
      cfg.read_faults = read_plan;
      cfg.write_faults = write_plan;
      cfg.retry.seed = seed;
      // Deep enough that a retry budget is never exhausted: every job
      // must complete for its digest to be checked.
      cfg.retry.max_attempts = 8;
      auto made = runtime::make_file_transcode_session(io, cfg);
      if (!made.is_ok()) {
        built[i] = made.status();
        return;
      }
      j.session = std::make_unique<runtime::FileTranscodeSession>(
          std::move(made.value()));
      instrument(j.session->graph, j.stamps, kFrames, opt.traced);
    });
    for (const common::Status& st : built) {
      if (!st.is_ok()) {
        r.failures.push_back("job build failed: " + st.to_text());
        return r;
      }
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  g_process_start_ns = 0;

  // ---- offered load ----
  if (auto st = sharded.start(); !st.is_ok()) {
    r.failures.push_back("engine start failed: " + st.to_text());
    return r;
  }
  const std::uint64_t t0 = now_ns();
  std::vector<double> submit_ns, lag_ms;
  std::uint64_t inflight_peak = 0;
  for (Job& j : jobs) {
    const std::uint64_t due = t0 + static_cast<std::uint64_t>(j.arrival_s * 1e9);
    sleep_until_ns(due);
    const std::uint64_t b = now_ns();
    lag_ms.push_back(seconds_between(due, b) * 1e3);
    auto ticket = j.session->submit_to(
        sharded, runtime::round_robin_mapping(j.session->graph, 1));
    submit_ns.push_back(static_cast<double>(now_ns() - b));
    if (ticket.is_ok()) {
      j.ticket = ticket.value();
      j.admitted = true;
    } else if (ticket.status().code() == common::StatusCode::kResourceExhausted) {
      j.end = JobEnd::kRejected;
    } else {
      j.end = JobEnd::kFailed;
      r.failures.push_back("submit failed: " + ticket.status().to_text());
    }
    inflight_peak = std::max(inflight_peak, sharded.stats().inflight);
  }
  if (auto st = sharded.wait(); !st.is_ok()) {
    r.failures.push_back("engine wait failed: " + st.to_text());
  }
  const double wall_s = seconds_between(t0, now_ns());

  // ---- accounting ----
  // Throughput: frames of the jobs offered in the window over the time
  // from the window's start until the last of them was written.
  const std::uint64_t win_begin = t0 + static_cast<std::uint64_t>(kWarmupS * 1e9);
  std::uint64_t win_done = win_begin;
  std::vector<double> job_latency_ns;
  std::uint64_t window_units = 0;
  EngineTotals et;
  IoTotals it;
  runtime::FaultStats faults;
  double modeled_us = 0.0;
  std::uint64_t disk_ops = 0, seek_blocks = 0;
  StageTable stages;
  ChromeTrace trace(t0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& j = jobs[i];
    runtime::FileTranscodeSession& s = *j.session;
    if (j.admitted) {
      s.finish();
      const runtime::SessionReport& rep = sharded.report(j.ticket);
      et.add(rep, s.graph);
      if (rep.outcome != SessionOutcome::kCompleted) j.end = JobEnd::kFailed;
      j.got = digest_of(s);
    }
    r.jobs.add(j.end, j.got, refs[j.content]);
    it.add(s.source->stats());
    it.add(s.sink->stats());
    faults.merge(j.injector->total_stats());
    modeled_us += s.reader_endpoint->modeled_io_us() + s.writer_endpoint->modeled_io_us();
    disk_ops += s.device->reads() + s.device->writes();
    seek_blocks += s.device->seek_distance();
    if (j.end != JobEnd::kCompleted) continue;

    const std::uint64_t due = t0 + static_cast<std::uint64_t>(j.arrival_s * 1e9);
    std::uint64_t last = 0;
    for (std::uint64_t u = 0; u < kFrames; ++u) {
      last = std::max(last, j.stamps.last_sink_end(u));
    }
    if (j.arrival_s >= kWarmupS) {
      job_latency_ns.push_back(static_cast<double>(last - due));
      window_units += kFrames;
      win_done = std::max(win_done, last);
    }
    if (opt.traced) {
      stages.add(s.graph, j.stamps, kFrames);
      const std::string name = "job " + std::to_string(i);
      trace.group_span(name, due, last, "");
      trace.task_spans(s.graph, j.stamps, kFrames, name);
    }
  }

  const Percentile p50 = percentile(job_latency_ns, 0.50);
  const Percentile tail = percentile(job_latency_ns, 0.90);
  if (!p50.ok || !tail.ok) r.failures.push_back("too few latency samples");
  r.overhead_basis = p50.value;
  add_metric(r.end_to_end, "setup_s", median(setup_s), "s", setup_s.size());
  add_metric(r.end_to_end, "units_per_s",
             static_cast<double>(window_units) / seconds_between(win_begin, win_done),
             "1/s", window_units);
  add_percentile(r.end_to_end, "latency_ms_p50", p50, 1e-6, "ms");
  add_percentile(r.end_to_end, "latency_ms_tail", tail, 1e-6, "ms");

  const std::uint64_t frames = kFrames * jobs.size();
  Metrics& m = r.per_layer;
  add_metric(m, "peak_rss_mb", peak_rss_mb(), "MB");
  add_metric(m, "failed_share", r.jobs.failed_share(), "share", r.jobs.attempted);
  if (telemetry) telemetry->flush();
  std::uint64_t steals = 0;
  for (std::size_t k = 0; k < sharded.shard_count(); ++k) {
    steals += sharded.shard(k).steal_count();
  }
  add_engine_metrics(m, et, so.shards * so.engine.workers, wall_s, steals,
                     telemetry.get());
  const runtime::IoContext::Stats ios = io.stats();
  add_io_metrics(m, et, it, ios.jobs, ios.busy_s,
                 wall_s * static_cast<double>(io_opts.threads), frames);
  add_metric(m, "fault.injected", static_cast<double>(faults.injected()), "count");
  add_metric(m, "fault.latency_spikes", static_cast<double>(faults.latency_spikes),
             "count");
  const Percentile submit_tail = percentile(submit_ns, 0.99);
  add_percentile(m, "admission.submit_us_tail", submit_tail, 1e-3, "us");
  add_metric(m, "admission.rejected", static_cast<double>(sharded.stats().rejected),
             "count");
  add_metric(m, "admission.inflight_peak", static_cast<double>(inflight_peak), "count");
  const double f = static_cast<double>(frames);
  add_metric(m, "disk.modeled_ms_per_frame", modeled_us * 1e-3 / f, "ms");
  add_metric(m, "disk.ops_per_frame", static_cast<double>(disk_ops) / f, "count");
  add_metric(m, "disk.seek_blocks_per_frame", static_cast<double>(seek_blocks) / f,
             "count");
  if (opt.traced) {
    add_stage_metrics(r, stages, et);
    if (!opt.trace_path.empty() && !trace.write(opt.trace_path)) {
      r.failures.push_back("cannot write trace " + opt.trace_path);
    }
  }
  const Percentile lag = percentile(lag_ms, 0.99);
  r.windows.num("rate_hz", kRateHz)
      .num("warmup_s", kWarmupS)
      .num("window_s", opt.seconds)
      .num("jobs", static_cast<std::uint64_t>(jobs.size()))
      .num("frames_per_job", kFrames)
      .num("generator_lag_ms_tail", lag.value)
      .num("trace_events_dropped", trace.dropped());
  return r;
}

}  // namespace mmsoc::bench
