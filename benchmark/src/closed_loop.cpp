// Closed-loop workloads: each client submits its next job as soon as its
// previous one completes, so a slower program receives less load.
//
//  fig1_encode  2 clients x Fig. 1 encoder jobs (CIF, 120 frames) on one
//               Engine with 3 workers. Stage bodies are ms-long: kernels,
//               codec and stage glue (capture's render included) do the
//               work, engine dispatch almost none.
//  audio_fleet  16 clients x Fig. 2 encoder jobs (2000 granules) on one
//               Engine with 3 workers. Bodies take microseconds, so engine
//               dispatch (batching, wakeups, steals, recycling) is a large
//               share — the engine used the opposite way from fig1_encode.
//
// Unit latency runs from the source body's start to the last sink body's
// end of the same iteration; throughput counts units whose last sink end
// falls inside the window.
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "runtime/pipelines.h"
#include "workloads.h"

namespace mmsoc::bench {

namespace {

using runtime::Engine;
using runtime::SessionOutcome;

/// A built job: the object that owns its graph, the graph, and how to
/// read its output digest once it completed.
struct BuiltJob {
  std::shared_ptr<void> owner;
  mpsoc::TaskGraph* graph = nullptr;
  std::function<Digest()> digest;
};

struct ClosedLoopSpec {
  std::size_t clients = 1;
  std::size_t workers = 1;
  std::uint64_t units = 1;
  std::size_t contents = 1;  ///< corpus entries the jobs cycle through
  double warmup_s = 2.0;
  double tail_q = 0.99;      ///< target quantile of latency_ms_tail
  int width = 176;           ///< probe frame size
  int height = 144;
  std::function<BuiltJob(std::uint64_t scene_seed)> build;
  /// PE placement hints of a client's jobs.
  std::function<mpsoc::Mapping(const mpsoc::TaskGraph&, std::size_t client)> mapping;
};

struct Job {
  BuiltJob built;
  std::size_t client = 0;
  std::size_t content = 0;  ///< corpus entry
  std::size_t session = 0;
  bool submitted = false;
  std::uint64_t submit_ns = 0;
  std::uint64_t done_ns = 0;
  UnitStamps stamps;
  Digest got;
};

/// Run one job alone on a 1-worker Engine and return its digest.
common::Result<Digest> reference(const ClosedLoopSpec& spec,
                                 std::uint64_t scene_seed) {
  BuiltJob job = spec.build(scene_seed);
  runtime::EngineOptions eo;
  eo.workers = 1;
  Engine engine(eo);
  auto s = engine.submit(*job.graph, runtime::round_robin_mapping(*job.graph, 1),
                         spec.units);
  if (!s.is_ok()) return common::Result<Digest>(s.status());
  if (auto st = engine.run(); !st.is_ok()) return common::Result<Digest>(st);
  if (engine.report(s.value()).outcome != SessionOutcome::kCompleted) {
    return common::Result<Digest>(
        common::Status(common::StatusCode::kInternal, "reference did not complete"));
  }
  return common::Result<Digest>(job.digest());
}

RunResult run_closed_loop(const ClosedLoopSpec& spec, const RunOptions& opt) {
  RunResult r;
  r.probe = {spec.width, spec.height, corpus_seed(0)};
  r.overhead_higher_is_better = true;

  std::uint64_t next_job = 0;
  const auto make_job = [&](std::size_t client) {
    Job j;
    j.client = client;
    j.content = next_job++ % spec.contents;
    j.built = spec.build(corpus_seed(j.content));
    instrument(*j.built.graph, j.stamps, spec.units, opt.traced);
    return j;
  };

  // ---- set-up: references + the first job of every client, repeated ----
  std::vector<Digest> refs;
  std::deque<Job> jobs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 =
        rep == 0 && g_process_start_ns != 0 ? g_process_start_ns : now_ns();
    std::vector<Digest> rep_refs = references<Digest>(
        spec.contents, [&](std::size_t k) { return reference(spec, corpus_seed(k)); },
        r);
    if (rep_refs.empty()) return r;
    if (!refs.empty() && rep_refs != refs) {
      r.failures.push_back("reference digests differ between set-ups");
    }
    refs = std::move(rep_refs);
    jobs.clear();
    next_job = 0;
    for (std::size_t c = 0; c < spec.clients; ++c) jobs.push_back(make_job(c));
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  g_process_start_ns = 0;  // only the first set-up of a process counts it

  // ---- measured window ----
  std::unique_ptr<Telemetry> telemetry;
  if (opt.traced) {
    TelemetryOptions to;
    to.unit_sample_period = 0;  // the benchmark's own spans do the tracing
    to.watchdog_periods = 0;
    telemetry = std::make_unique<Telemetry>(to);
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> done;
  runtime::EngineOptions eo;
  eo.workers = spec.workers;
  eo.telemetry = telemetry.get();
  eo.on_session_complete = [&](std::size_t s) {
    std::lock_guard lock(mu);
    done.push_back(s);
    cv.notify_one();
  };
  Engine engine(eo);
  if (auto st = engine.start(); !st.is_ok()) {
    r.failures.push_back("engine start failed: " + st.to_text());
    return r;
  }

  const std::uint64_t t0 = now_ns();
  const std::uint64_t warm_end = t0 + static_cast<std::uint64_t>(spec.warmup_s * 1e9);
  const std::uint64_t win_end = warm_end + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<std::size_t> job_of_session;
  std::size_t live = 0;
  const auto submit = [&](std::size_t index) {
    Job& j = jobs[index];
    j.submit_ns = now_ns();
    auto s = engine.submit(*j.built.graph, spec.mapping(*j.built.graph, j.client),
                           spec.units);
    if (!s.is_ok()) {
      r.failures.push_back("submit failed: " + s.status().to_text());
      return;
    }
    j.session = s.value();
    j.submitted = true;
    if (job_of_session.size() <= j.session) job_of_session.resize(j.session + 1);
    job_of_session[j.session] = index;
    ++live;
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) submit(i);

  std::vector<double> latency_ns;
  std::uint64_t window_units = 0;
  StageTable stages;
  ChromeTrace trace(t0);
  const auto fold = [&](Job& j) {
    j.got = j.built.digest();
    for (std::uint64_t u = 0; u < spec.units; ++u) {
      const std::uint64_t st = j.stamps.source_start(u);
      const std::uint64_t en = j.stamps.last_sink_end(u);
      if (st == 0 || en == 0) continue;
      if (st >= warm_end && st < win_end) {
        latency_ns.push_back(static_cast<double>(en - st));
      }
      if (en >= warm_end && en < win_end) ++window_units;
    }
    if (opt.traced) {
      stages.add(*j.built.graph, j.stamps, spec.units);
      const std::string name = "job " + std::to_string(j.session);
      trace.group_span(name, j.submit_ns, j.done_ns, "");
      trace.task_spans(*j.built.graph, j.stamps, spec.units, name);
    }
    j.stamps.release();
  };

  while (live > 0) {
    std::vector<std::size_t> finished;
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      finished.swap(done);
    }
    for (const std::size_t s : finished) {
      Job& j = jobs[job_of_session[s]];
      j.done_ns = now_ns();
      --live;
      fold(j);
      if (now_ns() < win_end) {
        jobs.push_back(make_job(j.client));
        submit(jobs.size() - 1);
      }
    }
  }
  if (auto st = engine.wait(); !st.is_ok()) {
    r.failures.push_back("engine wait failed: " + st.to_text());
  }
  const double wall_s = seconds_between(t0, now_ns());

  EngineTotals et;
  for (const Job& j : jobs) {
    if (!j.submitted) {
      r.jobs.add(JobEnd::kFailed, j.got, refs[j.content]);
      continue;
    }
    const runtime::SessionReport& rep = engine.report(j.session);
    et.add(rep, *j.built.graph);
    const JobEnd end =
        rep.outcome == SessionOutcome::kCompleted ? JobEnd::kCompleted : JobEnd::kFailed;
    r.jobs.add(end, j.got, refs[j.content]);
  }

  // ---- metrics ----
  const Percentile p50 = percentile(latency_ns, 0.50);
  const Percentile tail = percentile(latency_ns, spec.tail_q);
  if (!p50.ok || !tail.ok) r.failures.push_back("too few latency samples");
  const double units_per_s = static_cast<double>(window_units) / opt.seconds;
  r.overhead_basis = units_per_s;
  add_metric(r.end_to_end, "setup_s", median(setup_s), "s", setup_s.size());
  add_metric(r.end_to_end, "units_per_s", units_per_s, "1/s", window_units);
  add_percentile(r.end_to_end, "latency_ms_p50", p50, 1e-6, "ms");
  add_percentile(r.end_to_end, "latency_ms_tail", tail, 1e-6, "ms");

  add_metric(r.per_layer, "peak_rss_mb", peak_rss_mb(), "MB");
  add_metric(r.per_layer, "failed_share", r.jobs.failed_share(), "share",
             r.jobs.attempted);
  if (telemetry) telemetry->flush();
  add_engine_metrics(r.per_layer, et, spec.workers, wall_s, engine.steal_count(),
                     telemetry.get());
  if (opt.traced) {
    add_stage_metrics(r, stages, et);
    if (!opt.trace_path.empty() && !trace.write(opt.trace_path)) {
      r.failures.push_back("cannot write trace " + opt.trace_path);
    }
  }
  r.windows.num("clients", static_cast<std::uint64_t>(spec.clients))
      .num("workers", static_cast<std::uint64_t>(spec.workers))
      .num("units_per_job", spec.units)
      .num("contents", static_cast<std::uint64_t>(spec.contents))
      .num("warmup_s", spec.warmup_s)
      .num("window_s", opt.seconds)
      .num("jobs", static_cast<std::uint64_t>(jobs.size()))
      .num("drain_s", seconds_between(win_end, now_ns()))
      .num("trace_events_dropped", trace.dropped());
  return r;
}

}  // namespace

RunResult run_fig1_encode(const RunOptions& opt) {
  ClosedLoopSpec spec;
  spec.clients = 2;
  spec.workers = 3;
  spec.units = 120;
  spec.contents = 2;
  // p99 is not repeatable here: admitting a session into the running
  // engine stalls in-flight units for ~70-90 ms, 0-3 times per window, so
  // p99 jumps between ~18 and ~80 ms from run to run. p90 is reported.
  spec.tail_q = 0.90;
  spec.width = 352;
  spec.height = 288;
  spec.build = [](std::uint64_t scene_seed) {
    runtime::VideoPipelineConfig cfg;
    cfg.width = 352;
    cfg.height = 288;
    cfg.seed = scene_seed;
    auto p = std::make_shared<runtime::VideoPipeline>(
        runtime::make_video_encoder_pipeline(cfg));
    BuiltJob job{p, &p->graph, {}};
    job.digest = [sink = p->sink] {
      return Digest{sink->bitstream_crc, sink->recon_crc, sink->frames_coded,
                    sink->frames_reconstructed};
    };
    return job;
  };
  // Each client's capture (~70% of a frame's work) gets a worker of its
  // own and the other stages of both clients share the third. Hinting
  // every task round-robin put both captures on worker 0 and left their
  // separation to stealing, which spread throughput by 11% between runs.
  spec.mapping = [workers = spec.workers](const mpsoc::TaskGraph& g,
                                          std::size_t client) {
    mpsoc::Mapping m(g.task_count(), workers - 1);
    for (mpsoc::TaskId t = 0; t < g.task_count(); ++t) {
      if (g.task(t).name == "capture") m[t] = client;
    }
    return m;
  };
  return run_closed_loop(spec, opt);
}

RunResult run_audio_fleet(const RunOptions& opt) {
  ClosedLoopSpec spec;
  spec.clients = 16;
  spec.workers = 3;
  spec.units = 2000;
  spec.contents = 4;
  spec.build = [](std::uint64_t scene_seed) {
    runtime::AudioPipelineConfig cfg;
    cfg.seed = scene_seed;
    auto p = std::make_shared<runtime::AudioPipeline>(
        runtime::make_audio_encoder_pipeline(cfg));
    BuiltJob job{p, &p->graph, {}};
    job.digest = [sink = p->sink] {
      return Digest{sink->frame_crc, sink->frame_bytes, sink->granules_packed,
                    sink->granules_packed};
    };
    return job;
  };
  // Every session gets the same round-robin hints, so the 16 sessions'
  // stages pile onto the same workers and the steal scheduler spreads them.
  spec.mapping = [workers = spec.workers](const mpsoc::TaskGraph& g, std::size_t) {
    return runtime::round_robin_mapping(g, workers);
  };
  return run_closed_loop(spec, opt);
}

}  // namespace mmsoc::bench
