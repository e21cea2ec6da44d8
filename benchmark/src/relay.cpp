// live_relay — open loop ladder of real-time RTP relays. Rung S runs S
// concurrent streaming sessions (QCIF, 30 fps, 10% loss, reorder span 2,
// real-time network pacing) on a fresh Engine with 2 workers and 2 I/O
// threads; stream k starts k/S of a frame interval after the rung. The
// I/O threads carry the network pacing of every stream, so they are the
// bottleneck and decode does little of the work.
//
// Frame i of a stream is due at the stream's scheduled start + i frame
// intervals; its lateness is the end of its display firing minus that due
// time. Each rung is cut off after two thirds of `seconds`: frames not
// shown by then count as late, and the cut-off streams count as attempted
// but not failed.
#include <condition_variable>
#include <memory>
#include <mutex>

#include "runtime/pipelines.h"
#include "workloads.h"

namespace mmsoc::bench {

namespace {

using runtime::SessionOutcome;

constexpr double kIntervalUs = 33333.0;
constexpr double kIntervalS = kIntervalUs * 1e-6;
constexpr double kGraceS = 2.0;
constexpr double kLateMs = 250.0;
constexpr double kMaxLateShare = 0.01;
constexpr std::size_t kRungs[] = {1, 2, 4};
constexpr std::size_t kMaxStreams = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kIoThreads = 2;

runtime::StreamingSessionConfig stream_config(std::uint64_t scene_seed,
                                              std::uint64_t frames) {
  runtime::StreamingSessionConfig cfg;
  cfg.width = 176;
  cfg.height = 144;
  cfg.frames = frames;
  cfg.seed = scene_seed;
  cfg.frame_interval_us = kIntervalUs;
  cfg.loss_probability = 0.10;
  cfg.reorder_span = 2;
  return cfg;
}

Digest digest_of(const runtime::StreamingSession& s) {
  return Digest{s.state->luma_crc, s.state->luma_bytes, s.state->frames_decoded,
                s.state->frames_decoded - s.state->decode_conceals};
}

struct Reference {
  Digest digest;
  std::uint64_t concealed = 0;
  double jitter_us = 0.0;
  bool operator==(const Reference&) const = default;
};

/// The stream alone on a 1-worker engine with no pacing.
common::Result<Reference> reference(std::uint64_t scene_seed, std::uint64_t frames) {
  runtime::IoContext io;
  runtime::EngineOptions eo;
  eo.workers = 1;
  runtime::Engine engine(eo);
  if (auto st = engine.start(); !st.is_ok()) return common::Result<Reference>(st);
  runtime::StreamingSession s =
      runtime::make_streaming_session(io, stream_config(scene_seed, frames));
  auto id = s.submit_to(engine, runtime::round_robin_mapping(s.graph, 1));
  if (!id.is_ok()) return common::Result<Reference>(id.status());
  if (auto st = engine.wait(); !st.is_ok()) return common::Result<Reference>(st);
  s.finish();
  if (engine.report(id.value()).outcome != SessionOutcome::kCompleted) {
    return common::Result<Reference>(
        common::Status(common::StatusCode::kInternal, "reference did not complete"));
  }
  return common::Result<Reference>(
      Reference{digest_of(s), s.ingress->concealed(), s.ingress->jitter_us()});
}

struct Stream {
  std::unique_ptr<runtime::StreamingSession> session;
  UnitStamps stamps;
  mpsoc::TaskId display = 0;
  std::size_t id = 0;
  bool submitted = false;
};

/// One rung's program under test. Members are declared so the sessions
/// die before the engine and the engine before the I/O context.
struct Rung {
  Rung(std::size_t count, std::uint64_t frames, Telemetry* telemetry,
       const RunOptions& opt)
      : io([&] {
          runtime::IoContextOptions o;
          o.threads = kIoThreads;
          return o;
        }()),
        engine([&] {
          runtime::EngineOptions o;
          o.workers = kWorkers;
          o.telemetry = telemetry;
          o.on_session_complete = [this](std::size_t) {
            std::lock_guard lock(mu);
            ++completed;
            cv.notify_one();
          };
          return o;
        }()),
        streams(count) {
    parallel_for(count, [&](std::size_t k) {
      Stream& s = streams[k];
      auto cfg = stream_config(corpus_seed(k), frames);
      cfg.time_scale = 1.0;
      s.session = std::make_unique<runtime::StreamingSession>(
          runtime::make_streaming_session(io, cfg));
      mpsoc::TaskGraph& g = s.session->graph;
      for (mpsoc::TaskId t = 0; t < g.task_count(); ++t) {
        if (g.task(t).name == "display") s.display = t;
      }
      instrument(g, s.stamps, frames, opt.traced, {s.display});
    });
  }
  Rung(const Rung&) = delete;
  Rung& operator=(const Rung&) = delete;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;
  runtime::IoContext io;
  runtime::Engine engine;
  std::vector<Stream> streams;
};

}  // namespace

RunResult run_live_relay(const RunOptions& opt) {
  RunResult r;
  r.probe = {176, 144, corpus_seed(0)};
  r.overhead_higher_is_better = false;
  // The three rungs share the run's time: each lasts two thirds of
  // `seconds` (10 s at 15), streams end `kGraceS` before the cut-off.
  const double rung_s = opt.seconds * 2.0 / 3.0;
  if (rung_s <= kGraceS + 1.0) {
    r.failures.push_back("live_relay needs --seconds above 4.5");
    return r;
  }
  const auto frames =
      static_cast<std::uint64_t>(std::llround((rung_s - kGraceS) / kIntervalS));

  std::unique_ptr<Telemetry> telemetry;
  if (opt.traced) {
    TelemetryOptions to;
    to.unit_sample_period = 0;
    to.watchdog_periods = 0;
    telemetry = std::make_unique<Telemetry>(to);
  }

  // ---- set-up: references + the first rung's sessions, repeated ----
  std::vector<Reference> refs;
  std::unique_ptr<Rung> rung;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 =
        rep == 0 && g_process_start_ns != 0 ? g_process_start_ns : now_ns();
    std::vector<Reference> rep_refs = references<Reference>(
        kMaxStreams,
        [&](std::size_t k) { return reference(corpus_seed(k), frames); },
        r);
    if (rep_refs.empty()) return r;
    if (!refs.empty() && rep_refs != refs) {
      r.failures.push_back("reference outputs differ between set-ups");
    }
    refs = std::move(rep_refs);
    rung.reset();
    rung = std::make_unique<Rung>(kRungs[0], frames, telemetry.get(), opt);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  g_process_start_ns = 0;

  // ---- the ladder ----
  const std::uint64_t epoch = now_ns();
  ChromeTrace trace(epoch);
  StageTable stages;
  EngineTotals et;
  IoTotals it;
  std::uint64_t steals = 0, io_jobs = 0, frames_due = 0, late = 0;
  double engine_s = 0.0, io_busy_s = 0.0, top_rate = 0.0;
  std::size_t max_streams = 0;
  std::vector<double> lateness_ms;
  JsonObject rung_rows;
  for (const std::size_t streams : kRungs) {
    const std::uint64_t b0 = now_ns();
    if (!rung) rung = std::make_unique<Rung>(streams, frames, telemetry.get(), opt);
    const double build_s = seconds_between(b0, now_ns());
    Rung& R = *rung;
    if (auto st = R.engine.start(); !st.is_ok()) {
      r.failures.push_back("engine start failed: " + st.to_text());
      return r;
    }
    const std::vector<double> starts = stagger_starts(streams, kIntervalS);
    const std::uint64_t rung_start = now_ns();
    const std::uint64_t cutoff = rung_start + static_cast<std::uint64_t>(rung_s * 1e9);
    std::size_t submitted = 0;
    for (std::size_t k = 0; k < streams; ++k) {
      sleep_until_ns(rung_start + static_cast<std::uint64_t>(starts[k] * 1e9));
      Stream& s = R.streams[k];
      auto id = s.session->submit_to(
          R.engine, runtime::round_robin_mapping(s.session->graph, kWorkers));
      if (!id.is_ok()) {
        r.failures.push_back("submit failed: " + id.status().to_text());
        continue;
      }
      s.id = id.value();
      s.submitted = true;
      ++submitted;
    }
    bool cut = false;
    {
      std::unique_lock lock(R.mu);
      cut = !R.cv.wait_until(
          lock,
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(cutoff)),
          [&] { return R.completed == submitted; });
    }
    if (cut) R.engine.cancel_all();
    const std::uint64_t rung_end = now_ns();
    if (auto st = R.engine.wait(); !st.is_ok()) {
      r.failures.push_back("engine wait failed: " + st.to_text());
    }
    const double wall_s = seconds_between(rung_start, now_ns());
    if (seconds_between(cutoff, now_ns()) > 0.5) {
      r.failures.push_back("a rung outlived its cut-off");
    }
    engine_s += wall_s;
    steals += R.engine.steal_count();

    std::vector<StreamFrames> shown;
    for (std::size_t k = 0; k < streams; ++k) {
      Stream& s = R.streams[k];
      s.session->finish();
      shown.push_back(stream_frames(starts[k], s.stamps.end[s.display], rung_start));
      JobEnd end = JobEnd::kFailed;
      Digest got;
      if (s.submitted) {
        const runtime::SessionReport& rep = R.engine.report(s.id);
        et.add(rep, s.session->graph);
        got = digest_of(*s.session);
        if (rep.outcome == SessionOutcome::kCompleted) {
          end = JobEnd::kCompleted;
        } else if (rep.outcome == SessionOutcome::kCancelled && cut) {
          end = JobEnd::kCutoff;
        }
      }
      r.jobs.add(end, got, refs[k].digest);
      it.add(s.session->source->stats());
      it.add(s.session->sink->stats());
      if (opt.traced) {
        stages.add(s.session->graph, s.stamps, frames);
        const std::string name =
            "rung " + std::to_string(streams) + " stream " + std::to_string(k);
        const std::uint64_t due =
            rung_start + static_cast<std::uint64_t>(starts[k] * 1e9);
        trace.group_span(name, due, rung_end, "rung " + std::to_string(streams));
        trace.task_spans(s.session->graph, s.stamps, frames, name);
      }
    }
    if (opt.traced) {
      trace.group_span("rung " + std::to_string(streams), rung_start, rung_end, "");
    }
    const RungFrames rf = tally_frames(shown, kIntervalS, kLateMs);
    if (streams == kRungs[0]) lateness_ms = rf.lateness_ms;
    if (rf.late_share() <= kMaxLateShare) max_streams = streams;
    // Display rate while the rung ran; the top rung's is units_per_s.
    top_rate = static_cast<double>(rf.displayed) / seconds_between(rung_start, rung_end);
    frames_due += rf.due;
    late += rf.late;
    const runtime::IoContext::Stats ios = R.io.stats();
    io_jobs += ios.jobs;
    io_busy_s += ios.busy_s;
    rung_rows.raw(std::to_string(streams),
                  JsonObject()
                      .num("build_s", build_s)
                      .num("wall_s", wall_s)
                      .boolean("cut_off", cut)
                      .num("frames_due", rf.due)
                      .num("frames_displayed", rf.displayed)
                      .num("late_share", rf.late_share())
                      .num("display_per_s", top_rate)
                      .render());
    rung.reset();
  }

  // ---- metrics ----
  const Percentile p50 = percentile(lateness_ms, 0.50);
  const Percentile tail = percentile(lateness_ms, 0.95);
  if (!p50.ok || !tail.ok) r.failures.push_back("too few lateness samples");
  r.overhead_basis = p50.value;
  add_metric(r.end_to_end, "setup_s", median(setup_s), "s", setup_s.size());
  add_metric(r.end_to_end, "units_per_s", top_rate, "1/s");
  add_percentile(r.end_to_end, "latency_ms_p50", p50, 1.0, "ms");
  add_percentile(r.end_to_end, "latency_ms_tail", tail, 1.0, "ms");

  Metrics& m = r.per_layer;
  add_metric(m, "peak_rss_mb", peak_rss_mb(), "MB");
  add_metric(m, "failed_share", r.jobs.failed_share(), "share", r.jobs.attempted);
  add_metric(m, "late_share",
             frames_due > 0 ? static_cast<double>(late) / static_cast<double>(frames_due)
                            : 0.0,
             "share", frames_due);
  add_metric(m, "max_streams", static_cast<double>(max_streams), "count");
  if (telemetry) telemetry->flush();
  add_engine_metrics(m, et, kWorkers, engine_s, steals, telemetry.get());
  add_io_metrics(m, et, it, io_jobs, io_busy_s,
                 engine_s * static_cast<double>(kIoThreads), frames_due);
  std::uint64_t concealed = 0;
  double jitter = 0.0;
  for (const Reference& ref : refs) {
    concealed += ref.concealed;
    jitter += ref.jitter_us;
  }
  add_metric(m, "rtp.concealed_share",
             static_cast<double>(concealed) /
                 static_cast<double>(frames * refs.size()),
             "share");
  add_metric(m, "rtp.jitter_us", jitter / static_cast<double>(refs.size()), "us");
  if (opt.traced) {
    add_stage_metrics(r, stages, et);
    if (!opt.trace_path.empty() && !trace.write(opt.trace_path)) {
      r.failures.push_back("cannot write trace " + opt.trace_path);
    }
  }
  r.windows.num("frames_per_stream", frames)
      .num("frame_interval_ms", kIntervalS * 1e3)
      .num("cutoff_s", rung_s)
      .num("late_limit_ms", kLateMs)
      .raw("rungs", rung_rows.render())
      .num("trace_events_dropped", trace.dropped());
  return r;
}

}  // namespace mmsoc::bench
