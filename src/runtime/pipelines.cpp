#include "runtime/pipelines.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "audio/filterbank.h"
#include "audio/psycho.h"
#include "audio/subband_codec.h"
#include "common/bitstream.h"
#include "common/rng.h"
#include "core/appgraphs.h"
#include "dsp/crc32.h"
#include "video/codec.h"
#include "video/frame.h"
#include "video/source.h"

namespace mmsoc::runtime {

namespace {

using mpsoc::Payload;
using mpsoc::TaskFiring;
using mpsoc::TaskGraph;
using mpsoc::TaskId;

// ---- payload (de)serialization -------------------------------------------
//
// Bodies emit through TaskFiring::store/store_array or output_as wherever
// possible: the engine hands outputs as recycled channel buffers (cleared,
// with warmed-up capacity), so an in-place fill keeps the steady-state
// data plane allocation-free.

// Payload storage comes from operator new and is max-aligned, so viewing
// it as the element type it was serialized from is safe.
template <typename T>
std::span<const T> payload_as(const Payload& p) {
  return {reinterpret_cast<const T*>(p.data()), p.size() / sizeof(T)};
}

// Out-edge `k` sized to `n` elements of T, for the body to fill in place.
template <typename T>
std::span<T> output_as(TaskFiring& f, std::size_t k, std::size_t n) {
  f.outputs[k].resize(n * sizeof(T));
  return {reinterpret_cast<T*>(f.outputs[k].data()), n};
}

// Pipeline construction binds bodies by stage name; a rename in the
// core:: graph builders is a programmer error, surfaced loudly here
// rather than as an out-of-bounds set_body.
TaskId find_task(const TaskGraph& g, const char* name) {
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (g.task(t).name == name) return t;
  }
  throw std::logic_error(std::string("pipeline binding: no task named '") +
                         name + "' in graph '" + g.name() + "'");
}

// ---- video payloads -------------------------------------------------------

// `p` viewed as exactly `n` elements of T. A payload of any other size is
// an upstream defect: the body throws, so the engine fails the session
// with a status naming the task, instead of reading a short payload.
template <typename T>
std::span<const T> payload_exactly(const Payload& p, std::size_t n,
                                   const char* what) {
  if (p.size() != n * sizeof(T)) {
    throw std::length_error(std::string(what) + " payload of " +
                            std::to_string(p.size()) + " bytes, expected " +
                            std::to_string(n * sizeof(T)));
  }
  return payload_as<T>(p);
}

// Fill a body's own plane from a packed payload of exactly its
// width*height bytes and extend its edges into its border, if any.
void fill_plane(video::Plane& plane, const Payload& p) {
  const std::size_t n =
      static_cast<std::size_t>(plane.width()) * plane.height();
  plane.copy_packed_from(payload_exactly<std::uint8_t>(p, n, "plane").data(), n);
  plane.extend_edges();
}

// Payloads carry planes packed (width*height bytes, no stride padding).
void store_plane_packed(TaskFiring& f, std::size_t k,
                        const video::Plane& plane) {
  const std::size_t n =
      static_cast<std::size_t>(plane.width()) * plane.height();
  plane.copy_packed_to(output_as<std::uint8_t>(f, k, n).data());
}

// Motion fields travel as (dx, dy) int16 pairs in raster order, one per
// macroblock; an I frame has none (its payload is empty and unread).
video::MotionField field_from_payload(const video::FrameHeader& hd,
                                      const Payload& p) {
  video::MotionField field;
  if (hd.intra()) return field;
  field.blocks_x = hd.width / video::kMacroblockSize;
  field.blocks_y = hd.height / video::kMacroblockSize;
  field.blocks.resize(static_cast<std::size_t>(field.blocks_x) * field.blocks_y);
  const auto mv =
      payload_exactly<std::int16_t>(p, 2 * field.blocks.size(), "motion field");
  for (std::size_t i = 0; i < field.blocks.size(); ++i) {
    field.blocks[i].mv.dx = mv[2 * i];
    field.blocks[i].mv.dy = mv[2 * i + 1];
  }
  return field;
}

// Analytic per-frame stage op counts sizing the graph's edge/node weights
// (three-step search visits ~25 candidates per macroblock).
video::StageOps analytic_video_ops(int w, int h) {
  const auto mb = static_cast<std::uint64_t>(w / 16) * static_cast<std::uint64_t>(h / 16);
  const auto nb = static_cast<std::uint64_t>(w / 8) * static_cast<std::uint64_t>(h / 8);
  video::StageOps ops;
  ops.me_sad_ops = mb * 25 * 256;
  ops.mc_pixels = static_cast<std::uint64_t>(w) * h;
  ops.dct_blocks = nb;
  ops.idct_blocks = nb;
  ops.quant_coeffs = nb * 64;
  ops.vlc_symbols = nb * 20;
  return ops;
}

}  // namespace

VideoPipeline make_video_encoder_pipeline(const VideoPipelineConfig& config) {
  const int w = config.width;
  const int h = config.height;
  if (const auto st = video::check_frame_size(w, h); !st.is_ok()) {
    throw std::invalid_argument(st.message());
  }
  const std::size_t n = static_cast<std::size_t>(w) * h;  // luma samples

  VideoPipeline pipe{core::video_encoder_graph(w, h, analytic_video_ops(w, h)),
                     std::make_shared<VideoSinkState>()};
  TaskGraph& g = pipe.graph;
  auto sink = pipe.sink;

  // The bodies below are VideoEncoder::encode split at the Fig. 1 boxes
  // and run on luma: frame i is intra every EncoderConfig::gop_size
  // frames, otherwise predicted from the reconstruction of frame i-1,
  // which the reconstruct stage feeds back over the graph's delay edges
  // (an empty payload before frame 0).
  constexpr int kGop = video::EncoderConfig{}.gop_size;
  const auto header = [w, h, q = config.qscale](std::uint64_t frame) {
    return video::FrameHeader{frame % kGop == 0 ? video::FrameType::kIntra
                                                : video::FrameType::kPredicted,
                              q, w, h, false};
  };

  // CAPTURE: deterministic synthetic scene, one luma frame per iteration
  // rendered by a session-owned renderer into a session-owned plane,
  // broadcast to the motion estimator and the MC predictor.
  {
    auto renderer = std::make_shared<video::LumaRenderer>(
        video::scene_high_motion(config.seed), w, h);
    auto luma = std::make_shared<video::Plane>(w, h);
    g.set_body(find_task(g, "capture"), [renderer, luma](TaskFiring& f) {
      renderer->render(static_cast<int>(f.iteration), *luma);
      store_plane_packed(f, 0, *luma);  // -> motion estimator
      store_plane_packed(f, 1, *luma);  // -> MC predictor
    });
  }

  // The closed-loop bodies below fill planes they own, built here, from
  // their payloads: the current frame, and the reference with
  // video::kReferenceBorder, whose edges are extended once per firing so
  // the search and the compensation read their windows in place.
  const auto plane = [w, h](int border = 0) {
    return std::make_shared<video::Plane>(w, h, 0, border);
  };

  // MOTION ESTIMATOR: block search against the reconstructed reference;
  // vectors to the MC predictor and the VLC (none on I frames).
  g.set_body(find_task(g, "motion-estimator"),
             [header, range = config.search_range, algo = config.algo,
              cur = plane(), ref = plane(video::kReferenceBorder)](TaskFiring& f) {
               if (header(f.iteration).intra()) return;
               fill_plane(*cur, *f.inputs[0]);
               fill_plane(*ref, *f.inputs[1]);
               const auto field = video::estimate_frame(*cur, *ref, range, algo);
               const auto mv = output_as<std::int16_t>(f, 0, 2 * field.blocks.size());
               for (std::size_t i = 0; i < field.blocks.size(); ++i) {
                 mv[2 * i] = static_cast<std::int16_t>(field.blocks[i].mv.dx);
                 mv[2 * i + 1] = static_cast<std::int16_t>(field.blocks[i].mv.dy);
               }
               f.store_array(1, mv.data(), mv.size());
             });

  // MC PREDICTOR: the residual (to the DCT) and the prediction (to the
  // reconstruction adder). On I frames the reference is not read.
  g.set_body(find_task(g, "mc-predictor"),
             [n, header, cur = plane(), ref = plane(video::kReferenceBorder),
              pred = plane()](TaskFiring& f) {
               const auto hd = header(f.iteration);
               fill_plane(*cur, *f.inputs[0]);
               if (!hd.intra()) fill_plane(*ref, *f.inputs[2]);
               video::predict(hd, *cur, *ref, field_from_payload(hd, *f.inputs[1]),
                              /*chroma=*/false, *pred,
                              output_as<std::int16_t>(f, 0, n));
               store_plane_packed(f, 1, *pred);
             });

  g.set_body(find_task(g, "dct"), [n](TaskFiring& f) {
    video::forward_dct(payload_exactly<std::int16_t>(*f.inputs[0], n, "residual"),
                       output_as<float>(f, 0, n));
  });

  // QUANTIZER: levels broadcast to the VLC and the inverse DCT.
  g.set_body(find_task(g, "quantizer"), [n, header](TaskFiring& f) {
    const auto levels = output_as<std::int16_t>(f, 0, n);
    video::quantize(header(f.iteration),
                    payload_exactly<float>(*f.inputs[0], n, "coefficient"), levels);
    f.store_array(1, levels.data(), levels.size());
  });

  // VLC: frame header, motion vectors and luma blocks, one chunk per frame,
  // written into the out-edge's recycled buffer.
  g.set_body(find_task(g, "vlc"), [n, header, sink](TaskFiring& f) {
    const auto hd = header(f.iteration);
    common::BitWriter out(std::move(f.outputs[0]));
    sink->vlc_symbols += video::entropy_code(
        hd, field_from_payload(hd, *f.inputs[1]),
        {payload_exactly<std::int16_t>(*f.inputs[0], n, "level")}, out);
    f.outputs[0] = out.take();
  });

  g.set_body(find_task(g, "inverse-dct"), [n, header](TaskFiring& f) {
    video::inverse_dct(header(f.iteration),
                       payload_exactly<std::int16_t>(*f.inputs[0], n, "level"),
                       output_as<float>(f, 0, n));
  });

  // RECONSTRUCT: prediction + decoded residual, added in place, fed back
  // to the motion estimator and the MC predictor of the next frame;
  // CRC-chained so the whole reconstructed sequence is summarized in one
  // word.
  g.set_body(find_task(g, "reconstruct"),
             [n, recon = plane(), crc = std::make_shared<dsp::Crc32>(),
              sink](TaskFiring& f) {
               fill_plane(*recon, *f.inputs[1]);  // the prediction
               video::reconstruct(
                   payload_exactly<float>(*f.inputs[0], n, "residual"), *recon,
                   *recon);
               store_plane_packed(f, 0, *recon);
               f.store(1, f.outputs[0].data(), f.outputs[0].size());
               crc->update(f.outputs[0]);
               sink->recon_crc = crc->value();
               ++sink->frames_reconstructed;
             });

  // RATE BUFFER: the bitstream sink.
  g.set_body(find_task(g, "rate-buffer"),
             [crc = std::make_shared<dsp::Crc32>(), sink](TaskFiring& f) {
               crc->update(*f.inputs[0]);
               sink->bitstream_crc = crc->value();
               sink->bitstream_bytes += f.inputs[0]->size();
               ++sink->frames_coded;
             });

  return pipe;
}

// ---------------------------------------------------------------------------
// Audio pipeline
// ---------------------------------------------------------------------------

AudioPipeline make_audio_encoder_pipeline(const AudioPipelineConfig& config) {
  const int bit_pool =
      audio::granule_bit_pool(config.sample_rate, config.bitrate_bps);
  audio::AudioStageOps ops;
  ops.mapper_macs = static_cast<std::uint64_t>(audio::kBlocksPerGranule) *
                    audio::kSubbands * (2 * audio::kSubbands);
  ops.psycho_ops = 1024 * 10 + audio::kSubbands * audio::kSubbands;
  ops.quant_ops = audio::kGranuleSamples;
  ops.packer_bits = static_cast<std::uint64_t>(
      config.bitrate_bps * audio::kGranuleSamples / config.sample_rate);

  AudioPipeline pipe{core::audio_encoder_graph(ops),
                     std::make_shared<AudioSinkState>()};
  TaskGraph& g = pipe.graph;
  auto sink = pipe.sink;

  // PCM INPUT: deterministic sine mix + seeded dither, broadcast to the
  // mapper and the psychoacoustic model.
  g.set_body(find_task(g, "pcm-input"),
             [sr = config.sample_rate, seed = config.seed](TaskFiring& f) {
               std::array<double, audio::kGranuleSamples> pcm{};
               common::Rng rng(seed ^ (f.iteration * 0x9E3779B97F4A7C15ull));
               const double base = 220.0 + 55.0 * static_cast<double>(f.iteration % 8);
               for (int n = 0; n < audio::kGranuleSamples; ++n) {
                 const double t =
                     (static_cast<double>(f.iteration) * audio::kGranuleSamples + n) / sr;
                 const double dither =
                     (static_cast<double>(rng.next() >> 40) / 16777216.0 - 0.5) * 1e-3;
                 pcm[static_cast<std::size_t>(n)] =
                     0.5 * std::sin(2.0 * M_PI * base * t) +
                     0.25 * std::sin(2.0 * M_PI * base * 3.0 * t) + dither;
               }
               f.store_array(0, pcm.data(), pcm.size());  // -> mapper
               f.store_array(1, pcm.data(), pcm.size());  // -> psycho model
             });

  // The stage bodies below are SubbandEncoder::encode split at the Fig. 2
  // boxes, so the sink's stream is the encoder's, byte for byte.
  const auto granule = [](const Payload& p) {
    return payload_as<double>(p).first<audio::kGranuleSamples>();
  };

  // MAPPER: streaming 32-band analysis (stateful lapped transform).
  g.set_body(find_task(g, "mapper-filterbank"),
             [granule, analyzer = std::make_shared<audio::SubbandAnalyzer>()](
                 TaskFiring& f) {
               const auto bands = audio::map_granule(*analyzer, granule(*f.inputs[0]));
               f.store_array(0, bands.data(), bands.size());
             });

  // PSYCHOACOUSTIC MODEL: the per-band SMRs.
  g.set_body(find_task(g, "psychoacoustic-model"),
             [granule, model = audio::PsychoModel(config.sample_rate)](TaskFiring& f) {
               const auto psy = model.analyze(granule(*f.inputs[0]));
               f.store_array(0, psy.smr_db.data(), psy.smr_db.size());
             });

  // QUANTIZER/CODER: scalefactors, bit allocation and signed levels.
  g.set_body(find_task(g, "quantizer-coder"), [granule, bit_pool](TaskFiring& f) {
    const auto q = audio::quantize_granule(
        granule(*f.inputs[0]),
        payload_as<double>(*f.inputs[1]).first<audio::kSubbands>(),
        bit_pool);
    f.store(0, &q, sizeof q);
  });

  // FRAME PACKER: the decodable frame, chained into the sink's digest.
  g.set_body(find_task(g, "frame-packer"),
             [crc = std::make_shared<dsp::Crc32>(), sink](TaskFiring& f) {
               audio::QuantizedGranule q;
               std::memcpy(&q, f.inputs[0]->data(), sizeof q);
               const auto bytes = audio::pack_granule(q, {});
               crc->update(bytes);
               sink->frame_crc = crc->value();
               sink->frame_bytes += bytes.size();
               ++sink->granules_packed;
             });

  return pipe;
}

// ---------------------------------------------------------------------------
// Synthetic bodies
// ---------------------------------------------------------------------------

std::shared_ptr<SyntheticSinkState> attach_synthetic_bodies(
    mpsoc::TaskGraph& graph, double ops_scale) {
  auto sink = std::make_shared<SyntheticSinkState>();
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    const bool is_sink = graph.out_edges(t).empty();
    const auto spin = static_cast<std::uint64_t>(
        std::max(0.0, graph.task(t).work_ops * ops_scale));
    graph.set_body(t, [t, spin, is_sink, sink](TaskFiring& f) {
      // Mix inputs and iteration into a digest, then burn a calibrated
      // amount of sequentially-dependent arithmetic (not optimizable
      // away: the chain feeds the digest).
      std::uint64_t h = 0xcbf29ce484222325ull ^ (f.iteration * 0x100000001b3ull) ^
                        (static_cast<std::uint64_t>(t) << 32);
      for (const auto* in : f.inputs) {
        for (const std::uint8_t b : *in) h = (h ^ b) * 0x100000001b3ull;
      }
      for (std::uint64_t k = 0; k < spin; ++k) {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
      }
      if (is_sink) {
        sink->digest.fetch_xor(h * (t + 1), std::memory_order_relaxed);
        sink->tokens.fetch_add(1, std::memory_order_relaxed);
      } else {
        for (std::size_t k = 0; k < f.outputs.size(); ++k) {
          f.store_array(k, &h, 1);
        }
      }
    });
  }
  return sink;
}

namespace {

SyntheticPipeline make_chain(std::string name, std::size_t stages,
                             double stage_ops, std::size_t skew_stage,
                             double skew_factor) {
  if (stages == 0) stages = 1;
  mpsoc::TaskGraph graph(std::move(name));
  mpsoc::TaskId prev = 0;
  for (std::size_t i = 0; i < stages; ++i) {
    mpsoc::Task t;
    t.name = "stage" + std::to_string(i);
    t.work_ops = i == skew_stage ? stage_ops * skew_factor : stage_ops;
    const auto id = graph.add_task(std::move(t));
    if (i > 0) (void)graph.add_edge(prev, id, 8);
    prev = id;
  }
  SyntheticPipeline pipe{std::move(graph), nullptr};
  pipe.sink = attach_synthetic_bodies(pipe.graph);
  return pipe;
}

}  // namespace

SyntheticPipeline make_synthetic_chain(std::size_t stages, double stage_ops) {
  return make_chain("chain" + std::to_string(stages), stages, stage_ops,
                    /*skew_stage=*/stages, /*skew_factor=*/1.0);
}

SyntheticPipeline make_skewed_chain(std::size_t stages, double stage_ops,
                                    std::size_t skew_stage,
                                    double skew_factor) {
  return make_chain("skewed-chain" + std::to_string(stages), stages, stage_ops,
                    skew_stage, skew_factor);
}

SyntheticPipeline make_blocking_skewed_chain(std::size_t stages,
                                             double stage_ops,
                                             std::size_t skew_stage,
                                             double block_us) {
  SyntheticPipeline pipe = make_chain(
      "blocking-chain" + std::to_string(stages), stages, stage_ops,
      /*skew_stage=*/stages, /*skew_factor=*/1.0);
  if (skew_stage < pipe.graph.task_count() && block_us > 0.0) {
    // Wrap the synthetic body: wait out the modeled accelerator first,
    // then run the original spin/digest work. The wait releases the CPU
    // (a real co-processor would), which is exactly why overlapping the
    // waits of many sessions needs stealing, not more cores.
    mpsoc::TaskBody inner = pipe.graph.task(skew_stage).body;
    pipe.graph.set_body(
        skew_stage, [inner = std::move(inner), block_us](TaskFiring& f) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::micro>(block_us));
          inner(f);
        });
  }
  return pipe;
}

// ---------------------------------------------------------------------------
// Boundary sessions (async I/O)
// ---------------------------------------------------------------------------

namespace {

video::Frame frame_from_luma(const Payload& p, int w, int h) {
  video::Frame frame(w, h);
  frame.y().copy_packed_from(p.data(), p.size());
  return frame;
}

TaskId add_stage(TaskGraph& g, const char* name, double work_ops) {
  mpsoc::Task t;
  t.name = name;
  t.work_ops = work_ops;
  return g.add_task(std::move(t));
}

// Stage costs come from the same per-op weights (core::VideoCosts) the
// analytic Fig. 1 graphs use, so model and runtime agree on one source.
double analytic_decode_ops(int w, int h) {
  auto ops = analytic_video_ops(w, h);
  ops.me_sad_ops = 0;  // a decoder searches no motion and runs no DCT
  ops.dct_blocks = 0;
  return core::VideoCosts{}.weigh(ops);
}

double analytic_encode_ops(int w, int h) {
  return core::VideoCosts{}.weigh(analytic_video_ops(w, h));
}

/// DECODE: the Fig. 1 decode loop (VLD -> dequant -> IDCT -> MC
/// predictor -> reconstruct) realized by video::VideoDecoder, whose
/// reference frame is the stage state. Drop policy: an empty or
/// undecodable unit repeats the last good frame (decode_conceals); a
/// *concealed repeat* of a valid P unit decodes fine but drifts until
/// the next I frame — the classic artifact.
template <typename State>
mpsoc::TaskBody decode_body(std::shared_ptr<State> state, int w, int h) {
  struct DecoderStage {
    video::VideoDecoder decoder;
    video::Frame last;
  };
  auto st = std::make_shared<DecoderStage>();
  st->last = video::Frame(w, h);
  return [st, state = std::move(state)](TaskFiring& f) {
    const Payload& unit = *f.inputs[0];
    bool decoded = false;
    if (!unit.empty()) {
      if (auto frame = st->decoder.decode(unit); frame.is_ok()) {
        st->last = std::move(frame.value());
        decoded = true;
      }
    }
    if (!decoded) ++state->decode_conceals;
    ++state->frames_decoded;
    store_plane_packed(f, 0, st->last.y());
  };
}

/// Install the boundary tasks' bodies over the session's endpoint
/// functions. Async: one pool for both ends (unit buffers retired by the
/// source feed the sink's per-unit copies, so the boundary adds no
/// steady-state allocations) and adapters over the endpoints, wrapped by
/// the injector when one is configured — endpoint registration order (in
/// before out) is part of the determinism contract: ids feed the fault
/// hash. Inline (the blocking test reference): the worker itself calls
/// the endpoint; end of stream yields an empty unit and any other error
/// throws, which stops the run.
template <typename Config>
void bind_boundaries(BoundarySession& s, IoContext& io, const Config& config,
                     const char* read_name, const FaultPlan& read_plan,
                     TryReadFn read, const char* write_name,
                     const FaultPlan& write_plan, TryWriteFn write) {
  if (!config.async_boundaries) {
    s.graph.set_body(s.source_task, [read = std::move(read)](TaskFiring& f) {
      auto unit = read(f.iteration);
      if (unit.is_ok()) {
        f.outputs[0] = std::move(unit.value());
      } else if (unit.status().code() != common::StatusCode::kOutOfRange) {
        throw std::runtime_error(unit.status().to_text());
      }
    });
    s.graph.set_body(s.sink_task, [write = std::move(write)](TaskFiring& f) {
      if (auto st = write(f.iteration, *f.inputs[0]); !st.is_ok()) {
        throw std::runtime_error(st.to_text());
      }
    });
    return;
  }
  if (config.fault != nullptr) {
    read = config.fault->wrap_read(
        config.fault->add_endpoint(read_name, read_plan), std::move(read));
    write = config.fault->wrap_write(
        config.fault->add_endpoint(write_name, write_plan), std::move(write));
  }
  s.pool = std::make_shared<PayloadPool>(2 * config.io_depth + 4);
  s.source = std::make_unique<AsyncSource>(io, std::move(read), config.retry,
                                           config.io_depth, s.pool);
  s.sink = std::make_unique<AsyncSink>(io, std::move(write), config.retry,
                                       config.io_depth, s.pool);
  s.source->bind(s.graph, s.source_task);
  s.sink->bind(s.graph, s.sink_task);
}

/// Wire the boundary wakers — and the failure/error plumbing — of a
/// freshly submitted session. The engine must be running (task_waker
/// requires a wired session). Handlers are installed *before* attach()
/// (the io.h contract: attach may deliver an already-detected failure),
/// so a boundary that can no longer produce — retry budget exhausted,
/// permanent device error, IoContext stopped — retires the session as
/// kFailed/kUnavailable with the failing unit index instead of silently
/// draining empty payloads. The engine reference is captured raw: the
/// session object (and with it both adapters) must be destroyed before
/// the engine, which the session-outlives-drain contract already
/// requires.
common::Status wire_boundaries(Engine& engine, std::size_t session,
                               BoundarySession& s) {
  if (s.source == nullptr) return common::Status::ok();  // inline
  auto plumb = [&engine, session](BoundaryAdapter& adapter) {
    adapter.set_failure_handler(
        [&engine, session](std::uint64_t unit, const common::Status& status) {
          engine.fail_session(session, unit, status);
        });
    adapter.set_error_observer([&engine, session](std::uint64_t unit,
                                                  const common::Status& status,
                                                  bool will_retry) {
      engine.record_io_error(session, unit, status, will_retry);
    });
  };
  auto source_waker = engine.task_waker(session, s.source_task);
  if (!source_waker.is_ok()) return source_waker.status();
  plumb(*s.source);
  s.source->attach(s.frames, std::move(source_waker.value()));
  auto sink_waker = engine.task_waker(session, s.sink_task);
  if (!sink_waker.is_ok()) return sink_waker.status();
  plumb(*s.sink);
  s.sink->attach(std::move(sink_waker.value()));
  return common::Status::ok();
}

}  // namespace

common::Result<std::size_t> BoundarySession::submit_to(
    Engine& engine, const mpsoc::Mapping& mapping, SessionOptions options) {
  auto added = engine.submit(graph, mapping, frames, options);
  if (!added.is_ok()) return added;
  const common::Status wired = wire_boundaries(engine, added.value(), *this);
  if (!wired.is_ok()) return wired;
  return added;
}

common::Result<SessionTicket> BoundarySession::submit_to(
    ShardedEngine& sharded, const mpsoc::Mapping& mapping,
    SessionOptions options) {
  auto ticket = sharded.submit(graph, mapping, frames, options);
  if (!ticket.is_ok()) return ticket;
  const common::Status wired = wire_boundaries(
      sharded.shard(ticket.value().shard), ticket.value().session, *this);
  if (!wired.is_ok()) return wired;
  return ticket;
}

void BoundarySession::finish() {
  if (sink) sink->flush();
}

StreamingSession make_streaming_session(IoContext& io,
                                        const StreamingSessionConfig& config) {
  const int w = config.width;
  const int h = config.height;

  // Offline feed construction: encode the synthetic scene, packetize it,
  // then shape the feed deterministically (reorder before loss, as a real
  // network would jumble packets that later get dropped independently).
  video::EncoderConfig ec;
  ec.width = w;
  ec.height = h;
  ec.gop_size = config.gop_size;
  ec.qscale = config.qscale;
  video::VideoEncoder encoder(ec);
  const auto scene = video::scene_high_motion(config.seed);
  net::RtpSender sender;
  std::vector<TimedPacket> feed;
  feed.reserve(config.frames);
  for (std::uint64_t i = 0; i < config.frames; ++i) {
    const auto frame =
        video::SyntheticVideo::render(w, h, scene, static_cast<int>(i));
    auto encoded = encoder.encode(frame);
    feed.push_back(TimedPacket{
        sender.packetize(encoded.bytes, static_cast<std::uint32_t>(i) * 3000u),
        static_cast<double>(i) * config.frame_interval_us});
  }
  if (config.reorder_span > 0) {
    // Swap payloads i and i+span (arrival instants stay monotonic — the
    // later slot's packet simply arrives early and vice versa).
    for (std::size_t i = 0; i + config.reorder_span < feed.size();
         i += 2 * config.reorder_span) {
      std::swap(feed[i].bytes, feed[i + config.reorder_span].bytes);
    }
  }
  if (config.loss_probability > 0.0) {
    common::Rng rng(config.seed ^ 0xD1CE5EEDull);
    std::vector<TimedPacket> kept;
    kept.reserve(feed.size());
    for (auto& pkt : feed) {
      const double u =
          static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
      if (u >= config.loss_probability) kept.push_back(std::move(pkt));
    }
    feed = std::move(kept);
  }

  StreamingSession s;
  s.frames = config.frames;
  s.state = std::make_shared<StreamingState>();
  RtpIngressOptions in_opts;
  in_opts.playout_delay_units = config.playout_delay_units;
  in_opts.time_scale = config.time_scale;
  s.ingress = std::make_shared<RtpIngress>(std::move(feed), in_opts);
  RtpEgressOptions out_opts;
  out_opts.timestamp_step = 3000;
  out_opts.pacing_us = config.frame_interval_us * 0.25;  // uplink serialization
  out_opts.time_scale = config.time_scale;
  s.egress = std::make_shared<RtpEgress>(out_opts);

  TaskGraph& g = s.graph = TaskGraph("rtp-streaming");
  const double luma_bytes = static_cast<double>(w) * h;
  s.source_task = add_stage(g, "rtp-ingress", 500.0);
  const TaskId decode = add_stage(g, "decode", analytic_decode_ops(w, h));
  const TaskId display = add_stage(g, "display", luma_bytes);
  s.sink_task = add_stage(g, "rtp-egress", 500.0);
  (void)g.add_edge(s.source_task, decode, luma_bytes * 0.2);  // compressed
  (void)g.add_edge(decode, display, luma_bytes);
  (void)g.add_edge(display, s.sink_task, luma_bytes);

  g.set_body(decode, decode_body(s.state, w, h));

  // DISPLAY: CRC-chain the shown luma (one word summarizes the whole
  // displayed sequence) and forward it to the egress boundary.
  {
    auto crc = std::make_shared<dsp::Crc32>();
    g.set_body(display, [crc, state = s.state](TaskFiring& f) {
      crc->update(*f.inputs[0]);
      state->luma_crc = crc->value();
      state->luma_bytes += f.inputs[0]->size();
      f.store(0, f.inputs[0]->data(), f.inputs[0]->size());
    });
  }

  bind_boundaries(s, io, config, "rtp.in", config.ingress_faults,
                  s.ingress->try_reader(), "rtp.out", config.egress_faults,
                  s.egress->try_writer());
  return s;
}

common::Result<FileTranscodeSession> make_file_transcode_session(
    IoContext& io, const TranscodeSessionConfig& config) {
  using common::Result;
  const int w = config.width;
  const int h = config.height;
  if (auto st = video::check_frame_size(w, h); !st.is_ok()) {
    return Result<FileTranscodeSession>(st);
  }
  const std::uint32_t bs = config.block_size;
  if (bs < fs::kMinBlockSize) {
    return Result<FileTranscodeSession>(
        common::StatusCode::kInvalidArgument,
        "block_size " + std::to_string(bs) + " is below the volume's minimum " +
            std::to_string(fs::kMinBlockSize));
  }

  // Prep: encode the input stream and lay it down on a fresh FAT volume.
  video::EncoderConfig ec;
  ec.width = w;
  ec.height = h;
  ec.gop_size = config.gop_size;
  ec.qscale = config.in_qscale;
  video::VideoEncoder encoder(ec);
  const auto scene = video::scene_high_motion(config.seed);
  std::vector<std::vector<std::uint8_t>> units;
  units.reserve(config.frames);
  std::uint64_t total_bytes = 0;
  for (std::uint64_t i = 0; i < config.frames; ++i) {
    units.push_back(
        encoder
            .encode(video::SyntheticVideo::render(w, h, scene,
                                                  static_cast<int>(i)))
            .bytes);
    total_bytes += units.back().size();
  }
  // Input + re-encoded output + FAT/dir overhead, with generous slack.
  const auto blocks =
      static_cast<std::uint32_t>(total_bytes * 3 / bs + 256);

  FileTranscodeSession s;
  s.frames = config.frames;
  s.state = std::make_shared<TranscodeState>();
  s.device = std::make_unique<fs::BlockDevice>(blocks, bs);
  auto formatted = fs::FatVolume::format(*s.device);
  if (!formatted.is_ok()) {
    return Result<FileTranscodeSession>(formatted.status());
  }
  s.volume = std::make_unique<fs::FatVolume>(std::move(formatted.value()));
  s.volume_mu = std::make_shared<std::mutex>();
  s.out_path = "/out.bit";

  StreamIndex index;
  index.path = "/in.bit";
  std::uint64_t offset = 0;
  for (const auto& unit : units) {
    if (auto st = s.volume->append_file(index.path, unit); !st.is_ok()) {
      return Result<FileTranscodeSession>(st);
    }
    index.offsets.push_back(offset);
    index.sizes.push_back(static_cast<std::uint32_t>(unit.size()));
    offset += unit.size();
  }
  if (auto st = s.volume->write_file(s.out_path, {}); !st.is_ok()) {
    return Result<FileTranscodeSession>(st);
  }
  // Modeled I/O time should measure the transcode, not the prep writes.
  s.device->reset_stats();

  BlockIoOptions io_opts;
  io_opts.timing = config.timing;
  io_opts.time_scale = config.time_scale;
  s.reader_endpoint = std::make_shared<BlockFileSource>(
      *s.volume, s.volume_mu, std::move(index), io_opts);
  s.writer_endpoint = std::make_shared<BlockFileSink>(*s.volume, s.volume_mu,
                                                      s.out_path, io_opts);

  TaskGraph& g = s.graph = TaskGraph("file-transcode");
  const double luma_bytes = static_cast<double>(w) * h;
  s.source_task = add_stage(g, "block-read", 500.0);
  const TaskId decode = add_stage(g, "decode", analytic_decode_ops(w, h));
  const TaskId encode = add_stage(g, "encode", analytic_encode_ops(w, h));
  s.sink_task = add_stage(g, "block-write", 500.0);
  (void)g.add_edge(s.source_task, decode, luma_bytes * 0.2);
  (void)g.add_edge(decode, encode, luma_bytes);
  (void)g.add_edge(encode, s.sink_task, luma_bytes * 0.2);

  g.set_body(decode, decode_body(s.state, w, h));
  {
    // RE-ENCODE at the output rate point — the §3 transcode step.
    video::EncoderConfig out_ec;
    out_ec.width = w;
    out_ec.height = h;
    out_ec.gop_size = config.gop_size;
    out_ec.qscale = config.out_qscale;
    auto re = std::make_shared<video::VideoEncoder>(out_ec);
    auto crc = std::make_shared<dsp::Crc32>();
    g.set_body(encode, [re, crc, state = s.state, w, h](TaskFiring& f) {
      const auto encoded = re->encode(frame_from_luma(*f.inputs[0], w, h));
      crc->update(encoded.bytes);
      state->out_crc = crc->value();
      state->bytes_out += encoded.bytes.size();
      ++state->frames_encoded;
      f.store(0, encoded.bytes.data(), encoded.bytes.size());
    });
  }

  bind_boundaries(s, io, config, "file.read", config.read_faults,
                  s.reader_endpoint->try_reader(), "file.write",
                  config.write_faults, s.writer_endpoint->try_writer());
  return s;
}

mpsoc::Mapping round_robin_mapping(const mpsoc::TaskGraph& graph,
                                   std::size_t pes) {
  mpsoc::Mapping mapping(graph.task_count());
  const std::size_t n = std::max<std::size_t>(1, pes);
  for (std::size_t t = 0; t < mapping.size(); ++t) mapping[t] = t % n;
  return mapping;
}

}  // namespace mmsoc::runtime
