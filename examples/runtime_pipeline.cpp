// Runtime quickstart: actually *execute* the paper's Fig. 1 video encoder
// and Fig. 2 audio encoder as concurrent dataflow pipelines, then compare
// what the analytic MPSoC schedule predicted with what really happened.
//
//   $ ./example_runtime_pipeline
//
// Touches the new layer of the library: src/runtime (worker threads,
// bounded channels, sessions) on top of src/mpsoc (graphs, mapping,
// schedule prediction) and the real kernels in src/video + src/audio.
#include <chrono>
#include <cstdio>

#include "core/profiles.h"
#include "mpsoc/mapping.h"
#include "runtime/engine.h"
#include "runtime/pipelines.h"
#include "runtime/shard.h"
#include "runtime/trace.h"

int main() {
  using namespace mmsoc;

  // --- 1. Build the executable Fig. 1 encoder pipeline (QCIF-ish).
  runtime::VideoPipelineConfig vcfg;
  vcfg.width = 96;
  vcfg.height = 96;
  auto video_pipe = runtime::make_video_encoder_pipeline(vcfg);

  // --- 2. Map it onto the camera SoC with HEFT (the analytic layer).
  const auto platform = core::device_platform(core::DeviceClass::kVideoCamera);
  const auto mapped =
      mpsoc::map_graph(video_pipe.graph, platform, mpsoc::MapperKind::kHeft);
  std::printf("mapped %zu tasks onto '%s' (%zu PEs), predicted %.1f fps\n",
              video_pipe.graph.task_count(), platform.name.c_str(),
              platform.pes.size(), mapped.schedule.throughput_per_s());

  // --- 3. Execute for real: one worker thread per modeled PE.
  constexpr std::uint64_t kFrames = 30;
  const auto report =
      runtime::run_pipeline(video_pipe.graph, mapped.mapping, kFrames);
  if (!report.is_ok()) {
    std::printf("run failed: %s\n", report.status().to_text().c_str());
    return 1;
  }
  std::printf("executed %llu frames in %.1f ms -> measured %.1f fps\n",
              static_cast<unsigned long long>(kFrames),
              report.value().wall_s * 1e3,
              report.value().measured_throughput_hz());
  std::printf("bitstream %llu bytes (crc %08x), recon crc %08x\n\n",
              static_cast<unsigned long long>(video_pipe.sink->bitstream_bytes),
              video_pipe.sink->bitstream_crc, video_pipe.sink->recon_crc);

  // --- 4. Model vs reality, stage by stage.
  const auto cmp =
      runtime::compare_with_schedule(report.value(), video_pipe.graph,
                                     platform, mapped.mapping, mapped.schedule);
  std::printf("%s\n", runtime::format_comparison(cmp).c_str());

  // --- 5. Multiplex several sessions over one shared pool: two video
  // transcodes and one audio encode, like a DVR recording two channels
  // while playing music.
  runtime::EngineOptions opts;
  opts.workers = 4;
  runtime::Engine engine(opts);
  auto video_a = runtime::make_video_encoder_pipeline(vcfg);
  auto video_b = runtime::make_video_encoder_pipeline(vcfg);
  auto audio = runtime::make_audio_encoder_pipeline({});
  mpsoc::Mapping vmap(video_a.graph.task_count());
  for (std::size_t t = 0; t < vmap.size(); ++t) vmap[t] = t % 4;
  mpsoc::Mapping amap(audio.graph.task_count());
  for (std::size_t t = 0; t < amap.size(); ++t) amap[t] = t % 4;
  (void)engine.submit(video_a.graph, vmap, 15);
  (void)engine.submit(video_b.graph, vmap, 15);
  (void)engine.submit(audio.graph, amap, 40);
  const auto status = engine.run();
  if (!status.is_ok()) {
    std::printf("engine failed: %s\n", status.to_text().c_str());
    return 1;
  }
  std::printf("3 concurrent sessions on %zu workers:\n", engine.worker_count());
  for (std::size_t s = 0; s < engine.session_count(); ++s) {
    const auto& r = engine.report(s);
    std::printf("  %-16s %3llu iterations in %7.1f ms (%.1f/s)\n",
                r.graph.c_str(), static_cast<unsigned long long>(r.iterations),
                r.wall_s * 1e3, r.measured_throughput_hz());
  }
  std::printf("audio frames: %llu granules, %llu bytes (crc %08x)\n",
              static_cast<unsigned long long>(audio.sink->granules_packed),
              static_cast<unsigned long long>(audio.sink->frame_bytes),
              audio.sink->frame_crc);

  // --- 6. Runaway-session control: a per-session deadline cancels a
  // transcode that would run (nearly) forever, without touching the
  // well-behaved session sharing the pool.
  runtime::Engine guard(opts);
  auto runaway = runtime::make_synthetic_chain(3, 20000.0);
  auto behaved = runtime::make_video_encoder_pipeline(vcfg);
  runtime::SessionOptions budget;
  budget.timeout = std::chrono::milliseconds(50);
  const auto s_runaway =
      guard.submit(runaway.graph, {0, 1, 2}, 200'000'000, budget);
  const auto s_behaved = guard.submit(behaved.graph, vmap, 10);
  if (s_runaway.is_ok() && s_behaved.is_ok() && guard.run().is_ok()) {
    const auto& rr = guard.report(s_runaway.value());
    const auto& br = guard.report(s_behaved.value());
    std::printf("\nrunaway session: %s after %llu firings (%.1f ms); "
                "co-scheduled encode: %s\n",
                std::string(runtime::to_string(rr.outcome)).c_str(),
                static_cast<unsigned long long>(rr.completed_firings),
                rr.wall_s * 1e3,
                std::string(runtime::to_string(br.outcome)).c_str());
  }

  // --- 7. The scheduler decouples logical PEs from physical workers:
  // every task of eight skewed pipelines *hints* at worker 0 of 4 (a
  // deliberately bad static mapping). Bounded work stealing migrates
  // whole tasks at iteration boundaries, so the other workers pick up
  // the slack — and the output stays bit-identical.
  runtime::EngineOptions steal_opts;
  steal_opts.workers = 4;
  runtime::Engine skewed(steal_opts);
  std::vector<runtime::SyntheticPipeline> skew_jobs;
  skew_jobs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    skew_jobs.push_back(runtime::make_skewed_chain(4, 2000.0, 1));
    (void)skewed.submit(skew_jobs.back().graph, {0, 0, 0, 0}, 48);
  }
  if (skewed.run().is_ok()) {
    std::uint64_t migrations = 0;
    for (std::size_t s = 0; s < skewed.session_count(); ++s) {
      migrations += skewed.report(s).task_migrations;
    }
    std::printf("\nwork stealing: 8 skewed pipelines hinted at worker 0/4 -> "
                "%llu task migrations\n",
                static_cast<unsigned long long>(migrations));
    const auto& rep = skewed.report(0);
    for (const auto& t : rep.tasks) {
      std::printf("  %-8s pe %zu, home worker %zu, finished on worker %zu "
                  "(%llu migrations, mean %.1f us)\n",
                  t.name.c_str(), t.pe, t.home_worker, t.worker,
                  static_cast<unsigned long long>(t.migrations),
                  t.mean_firing_s() * 1e6);
    }
  }

  // --- 8. Heavy traffic with a front door that never closes: START the
  // 2-shard front-end first, then pour 32 transcodes into the *running*
  // shards. Each shard admits 8 in flight; the overflow is rejected with
  // a reason instead of oversubscribing the pools, and slots free the
  // moment a session completes.
  runtime::ShardedEngineOptions sopts;
  sopts.shards = 2;
  sopts.max_sessions_per_shard = 8;
  sopts.engine.workers = 2;
  runtime::ShardedEngine front(sopts);
  if (!front.start().is_ok()) return 1;  // idle shards park until traffic
  std::vector<runtime::SyntheticPipeline> jobs;
  std::vector<runtime::SessionTicket> admitted;
  jobs.reserve(32);
  for (int i = 0; i < 32; ++i) {
    jobs.push_back(runtime::make_synthetic_chain(4, 2000.0));
    mpsoc::Mapping m(4);
    for (std::size_t t = 0; t < 4; ++t) m[t] = t % 2;
    auto ticket = front.submit(jobs.back().graph, m, 20);
    if (ticket.is_ok()) admitted.push_back(ticket.value());
  }
  const auto fstats = front.stats();
  std::printf("\nsharded front-end (dynamic admission): %llu submitted into "
              "running shards,\n%llu admitted, %llu rejected (%.0f%%)\n",
              static_cast<unsigned long long>(fstats.submitted),
              static_cast<unsigned long long>(fstats.accepted),
              static_cast<unsigned long long>(fstats.rejected),
              fstats.reject_rate() * 100.0);
  if (front.wait().is_ok()) {
    std::size_t completed = 0;
    for (const auto t : admitted) {
      if (front.report(t).outcome == runtime::SessionOutcome::kCompleted) {
        ++completed;
      }
    }
    std::printf("admitted sessions completed: %zu/%zu across %zu shards "
                "(%llu slots recycled)\n",
                completed, admitted.size(), front.shard_count(),
                static_cast<unsigned long long>(front.stats().completed));
  }
  return 0;
}
