#include "runtime/pipelines.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "audio/allocation.h"
#include "audio/filterbank.h"
#include "audio/psycho.h"
#include "audio/subband_codec.h"
#include "common/bitstream.h"
#include "common/crc32.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "core/appgraphs.h"
#include "dsp/dct.h"
#include "video/codec.h"
#include "video/frame.h"
#include "video/quantizer.h"
#include "video/source.h"
#include "video/vlc.h"

namespace mmsoc::runtime {

namespace {

using mpsoc::Payload;
using mpsoc::TaskFiring;
using mpsoc::TaskGraph;
using mpsoc::TaskId;

// ---- payload (de)serialization -------------------------------------------
//
// Bodies emit through TaskFiring::store/store_array wherever possible:
// the engine hands outputs as recycled channel buffers (cleared, with
// warmed-up capacity), so an in-place fill keeps the steady-state data
// plane allocation-free. to_payload remains for the few spots that build
// a vector anyway (e.g. a BitWriter's take()).

template <typename T>
Payload to_payload(const T* data, std::size_t count) {
  Payload p(count * sizeof(T));
  std::memcpy(p.data(), data, p.size());
  return p;
}

// Payload storage comes from operator new and is max-aligned, so viewing
// it as the element type it was serialized from is safe.
template <typename T>
const T* payload_as(const Payload& p) {
  return reinterpret_cast<const T*>(p.data());
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

// ---- video stage states ---------------------------------------------------

struct RefPlaneState {
  video::Plane ref;
};

struct CrcState {
  common::Crc32 crc;
};

video::Plane plane_from_payload(const Payload& p, int w, int h) {
  video::Plane plane(w, h);
  plane.copy_packed_from(p.data(), p.size());
  return plane;
}

// Payloads carry planes packed (width*height bytes, no stride padding);
// Plane rows are 64-byte aligned, so serialize row-wise through a
// thread-local scratch that stays warm across firings.
void store_plane_packed(TaskFiring& f, std::size_t k,
                        const video::Plane& plane) {
  thread_local std::vector<std::uint8_t> scratch;
  const std::size_t n =
      static_cast<std::size_t>(plane.width()) * plane.height();
  scratch.resize(n);
  plane.copy_packed_to(scratch.data());
  f.store(k, scratch.data(), n);
}

video::MotionField field_from_payload(const Payload& p, int w, int h) {
  video::MotionField field;
  field.blocks_x = w / video::kMacroblockSize;
  field.blocks_y = h / video::kMacroblockSize;
  const auto* mv = payload_as<std::int16_t>(p);
  field.blocks.resize(static_cast<std::size_t>(field.blocks_x) * field.blocks_y);
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
  // The stage bodies count whole blocks (w / 8, w / 16); a partial
  // macroblock would be dropped and misalign the motion-field stride.
  if (w <= 0 || h <= 0 || w % video::kMacroblockSize != 0 ||
      h % video::kMacroblockSize != 0) {
    throw std::invalid_argument(
        "video encoder pipeline: frame " + std::to_string(w) + "x" +
        std::to_string(h) + " is not a positive multiple of 16");
  }
  const int bx = w / 8;
  const int by = h / 8;
  const std::size_t blocks = static_cast<std::size_t>(bx) * by;

  VideoPipeline pipe{core::video_encoder_graph(w, h, analytic_video_ops(w, h)),
                     std::make_shared<VideoSinkState>()};
  TaskGraph& g = pipe.graph;
  auto sink = pipe.sink;

  // CAPTURE: deterministic synthetic scene, one luma frame per iteration
  // rendered into a session-owned plane, broadcast to the motion
  // estimator and the MC predictor.
  {
    const auto scene = video::scene_high_motion(config.seed);
    auto luma = std::make_shared<video::Plane>(w, h);
    g.set_body(find_task(g, "capture"), [scene, luma](TaskFiring& f) {
      video::SyntheticVideo::render_luma(scene, static_cast<int>(f.iteration),
                                         *luma);
      store_plane_packed(f, 0, *luma);  // -> motion estimator
      store_plane_packed(f, 1, *luma);  // -> MC predictor
    });
  }

  // MOTION ESTIMATOR: real block search against the previous source frame
  // (open-loop reference, kept task-local for determinism).
  {
    auto st = std::make_shared<RefPlaneState>();
    st->ref = video::Plane(w, h, 16);
    g.set_body(find_task(g, "motion-estimator"),
               [w, h, st, range = config.search_range,
                algo = config.algo](TaskFiring& f) {
                 video::Plane cur = plane_from_payload(*f.inputs[0], w, h);
                 const auto field =
                     video::estimate_frame(cur, st->ref, range, algo);
                 std::vector<std::int16_t> mv;
                 mv.reserve(field.blocks.size() * 2);
                 for (const auto& b : field.blocks) {
                   mv.push_back(static_cast<std::int16_t>(b.mv.dx));
                   mv.push_back(static_cast<std::int16_t>(b.mv.dy));
                 }
                 f.store_array(0, mv.data(), mv.size());
                 // Copy, not move: the reference keeps the storage it was
                 // built with, so stage state that outlives the session
                 // never pins a plane a worker allocated mid-run (that
                 // fragments the heap across back-to-back sessions).
                 st->ref = cur;
               });
  }

  // MC PREDICTOR: build the prediction, emit the residual (to DCT) and
  // the prediction itself (to the reconstruction adder).
  {
    auto st = std::make_shared<RefPlaneState>();
    st->ref = video::Plane(w, h, 16);
    g.set_body(find_task(g, "mc-predictor"), [w, h, st](TaskFiring& f) {
      video::Plane cur = plane_from_payload(*f.inputs[0], w, h);
      const auto field = field_from_payload(*f.inputs[1], w, h);
      const video::Plane pred = video::compensate(st->ref, field);
      std::vector<std::int16_t> residual(static_cast<std::size_t>(w) * h);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          residual[static_cast<std::size_t>(y) * w + x] =
              static_cast<std::int16_t>(static_cast<int>(cur.at(x, y)) -
                                        static_cast<int>(pred.at(x, y)));
        }
      }
      f.store_array(0, residual.data(), residual.size());
      store_plane_packed(f, 1, pred);
      st->ref = cur;  // copy: see the motion estimator
    });
  }

  // DCT: separable 8x8 forward transform of each residual block,
  // block-linear float coefficients out.
  g.set_body(find_task(g, "dct"), [w, bx, by, blocks](TaskFiring& f) {
    const auto* residual = payload_as<std::int16_t>(*f.inputs[0]);
    std::vector<float> coeffs(blocks * 64);
    dsp::Block in{}, out{};
    for (int byi = 0; byi < by; ++byi) {
      for (int bxi = 0; bxi < bx; ++bxi) {
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            in[static_cast<std::size_t>(y) * 8 + x] = static_cast<float>(
                residual[(static_cast<std::size_t>(byi) * 8 + y) * w + bxi * 8 + x]);
          }
        }
        dsp::dct2d(in, out);
        std::memcpy(&coeffs[(static_cast<std::size_t>(byi) * bx + bxi) * 64],
                    out.data(), 64 * sizeof(float));
      }
    }
    f.store_array(0, coeffs.data(), coeffs.size());
  });

  // QUANTIZER: perceptual quantization, levels broadcast to VLC and IDCT.
  {
    const video::Quantizer quant(video::default_inter_matrix(), config.qscale);
    g.set_body(find_task(g, "quantizer"), [quant, blocks](TaskFiring& f) {
      const auto* coeffs = payload_as<float>(*f.inputs[0]);
      std::vector<std::int16_t> levels(blocks * 64);
      for (std::size_t b = 0; b < blocks; ++b) {
        quant.quantize(std::span<const float, 64>(coeffs + b * 64, 64),
                       std::span<std::int16_t, 64>(&levels[b * 64], 64));
      }
      f.store_array(0, levels.data(), levels.size());  // -> vlc
      f.store_array(1, levels.data(), levels.size());  // -> inverse dct
    });
  }

  // VLC: (run, level) Huffman coding, one bitstream chunk per frame.
  g.set_body(find_task(g, "vlc"), [blocks, sink](TaskFiring& f) {
    const auto* levels = payload_as<std::int16_t>(*f.inputs[0]);
    common::BitWriter writer;
    std::int16_t dc_pred = 0;
    std::uint64_t symbols = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto stats = video::encode_block(
          std::span<const std::int16_t, 64>(levels + b * 64, 64), true,
          dc_pred, writer);
      symbols += stats.symbols;
    }
    sink->vlc_symbols += symbols;
    f.outputs[0] = writer.take();
  });

  // INVERSE DCT: dequantize + inverse transform back to a residual.
  {
    const video::Quantizer quant(video::default_inter_matrix(), config.qscale);
    g.set_body(find_task(g, "inverse-dct"),
               [quant, w, bx, by, blocks](TaskFiring& f) {
                 const auto* levels = payload_as<std::int16_t>(*f.inputs[0]);
                 std::vector<std::int16_t> residual(
                     static_cast<std::size_t>(w) * (by * 8));
                 dsp::Block coeffs{}, pixels{};
                 for (int byi = 0; byi < by; ++byi) {
                   for (int bxi = 0; bxi < bx; ++bxi) {
                     const std::size_t base =
                         (static_cast<std::size_t>(byi) * bx + bxi) * 64;
                     std::array<float, 64> fc{};
                     quant.dequantize(
                         std::span<const std::int16_t, 64>(levels + base, 64),
                         std::span<float, 64>(fc));
                     std::copy(fc.begin(), fc.end(), coeffs.begin());
                     dsp::idct2d(coeffs, pixels);
                     for (int y = 0; y < 8; ++y) {
                       for (int x = 0; x < 8; ++x) {
                         residual[(static_cast<std::size_t>(byi) * 8 + y) * w +
                                  bxi * 8 + x] =
                             static_cast<std::int16_t>(common::round_half_away(
                                 pixels[static_cast<std::size_t>(y) * 8 + x]));
                       }
                     }
                   }
                 }
                 f.store_array(0, residual.data(), residual.size());
               });
  }

  // RECONSTRUCT: prediction + decoded residual, clamped; CRC-chained so
  // the whole reconstructed sequence is summarized in one word.
  {
    auto st = std::make_shared<CrcState>();
    g.set_body(find_task(g, "reconstruct"), [w, h, st, sink](TaskFiring& f) {
      const auto* residual = payload_as<std::int16_t>(*f.inputs[0]);
      const auto* pred = f.inputs[1]->data();
      std::vector<std::uint8_t> recon(static_cast<std::size_t>(w) * h);
      for (std::size_t i = 0; i < recon.size(); ++i) {
        recon[i] = static_cast<std::uint8_t>(
            std::clamp(static_cast<int>(pred[i]) + residual[i], 0, 255));
      }
      st->crc.update(recon);
      sink->recon_crc = st->crc.value();
      ++sink->frames_reconstructed;
    });
  }

  // RATE BUFFER: the bitstream sink.
  {
    auto st = std::make_shared<CrcState>();
    g.set_body(find_task(g, "rate-buffer"), [st, sink](TaskFiring& f) {
      st->crc.update(*f.inputs[0]);
      sink->bitstream_crc = st->crc.value();
      sink->bitstream_bytes += f.inputs[0]->size();
      ++sink->frames_coded;
    });
  }

  return pipe;
}

// ---------------------------------------------------------------------------
// Audio pipeline
// ---------------------------------------------------------------------------

AudioPipeline make_audio_encoder_pipeline(const AudioPipelineConfig& config) {
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

  // MAPPER: streaming 32-band analysis (stateful lapped transform).
  {
    auto analyzer = std::make_shared<audio::SubbandAnalyzer>();
    g.set_body(find_task(g, "mapper-filterbank"), [analyzer](TaskFiring& f) {
      const auto* pcm = payload_as<double>(*f.inputs[0]);
      std::array<double, audio::kGranuleSamples> bands{};
      for (int t = 0; t < audio::kBlocksPerGranule; ++t) {
        const auto block = analyzer->analyze(std::span<const double, audio::kSubbands>(
            pcm + t * audio::kSubbands, audio::kSubbands));
        std::copy(block.begin(), block.end(),
                  bands.begin() + t * audio::kSubbands);
      }
      f.store_array(0, bands.data(), bands.size());
    });
  }

  // PSYCHOACOUSTIC MODEL: SMR + signal level per subband.
  {
    auto model = std::make_shared<audio::PsychoModel>(config.sample_rate);
    g.set_body(find_task(g, "psychoacoustic-model"), [model](TaskFiring& f) {
      const auto* pcm = payload_as<double>(*f.inputs[0]);
      const auto psy = model->analyze(
          std::span<const double>(pcm, audio::kGranuleSamples));
      std::array<double, 2 * audio::kSubbands> out{};
      std::copy(psy.smr_db.begin(), psy.smr_db.end(), out.begin());
      std::copy(psy.signal_db.begin(), psy.signal_db.end(),
                out.begin() + audio::kSubbands);
      f.store_array(0, out.data(), out.size());
    });
  }

  // QUANTIZER/CODER: greedy masking-driven bit allocation, then uniform
  // scalefactor quantization of every subband sample.
  {
    const double granule_seconds =
        static_cast<double>(audio::kGranuleSamples) / config.sample_rate;
    const int bit_pool = std::max(
        0, static_cast<int>(config.bitrate_bps * granule_seconds) -
               (12 + 4 * audio::kSubbands + 16 + 6 * audio::kSubbands));
    g.set_body(find_task(g, "quantizer-coder"), [bit_pool](TaskFiring& f) {
      const auto* bands = payload_as<double>(*f.inputs[0]);
      const auto* psy = payload_as<double>(*f.inputs[1]);
      std::array<double, audio::kSubbands> smr{};
      std::array<double, audio::kSubbands> signal_db{};
      std::copy(psy, psy + audio::kSubbands, smr.begin());
      std::copy(psy + audio::kSubbands, psy + 2 * audio::kSubbands,
                signal_db.begin());
      const auto alloc = audio::allocate_bits(smr, bit_pool,
                                              audio::kBlocksPerGranule,
                                              signal_db);
      // Serialized frame plan: alloc[32], sf_idx[32], levels[32*12] i16.
      std::vector<std::uint8_t> plan(2 * audio::kSubbands);
      std::vector<std::int16_t> levels(
          static_cast<std::size_t>(audio::kSubbands) * audio::kBlocksPerGranule);
      for (int k = 0; k < audio::kSubbands; ++k) {
        double peak = 0.0;
        for (int t = 0; t < audio::kBlocksPerGranule; ++t) {
          peak = std::max(peak, std::abs(bands[t * audio::kSubbands + k]));
        }
        const int sf = audio::scalefactor_index_for(peak);
        plan[static_cast<std::size_t>(k)] = alloc[static_cast<std::size_t>(k)];
        plan[static_cast<std::size_t>(audio::kSubbands + k)] =
            static_cast<std::uint8_t>(sf);
        const int bits = alloc[static_cast<std::size_t>(k)];
        if (bits == 0) continue;
        const double scale = audio::scalefactor_value(sf);
        const int max_level = (1 << bits) - 1;
        for (int t = 0; t < audio::kBlocksPerGranule; ++t) {
          const double normalized =
              scale > 0.0 ? bands[t * audio::kSubbands + k] / scale : 0.0;
          const double unit = (std::clamp(normalized, -1.0, 1.0) + 1.0) / 2.0;
          levels[static_cast<std::size_t>(k) * audio::kBlocksPerGranule + t] =
              static_cast<std::int16_t>(std::lround(unit * max_level));
        }
      }
      // Serialized in place: plan bytes, then the level words. insert
      // grows within the recycled buffer's warmed capacity.
      f.store(0, plan.data(), plan.size());
      const auto* lv = reinterpret_cast<const std::uint8_t*>(levels.data());
      f.outputs[0].insert(f.outputs[0].end(), lv,
                          lv + levels.size() * sizeof(std::int16_t));
    });
  }

  // FRAME PACKER: bit-pack allocation, scalefactors and samples.
  {
    auto st = std::make_shared<CrcState>();
    g.set_body(find_task(g, "frame-packer"), [st, sink](TaskFiring& f) {
      const auto& in = *f.inputs[0];
      const std::uint8_t* alloc = in.data();
      const std::uint8_t* sf = in.data() + audio::kSubbands;
      const auto* levels =
          reinterpret_cast<const std::int16_t*>(in.data() + 2 * audio::kSubbands);
      common::BitWriter writer;
      writer.put_bits(0xFFF, 12);  // sync
      for (int k = 0; k < audio::kSubbands; ++k) writer.put_bits(alloc[k], 4);
      for (int k = 0; k < audio::kSubbands; ++k) {
        if (alloc[k] > 0) writer.put_bits(sf[k], 6);
      }
      for (int k = 0; k < audio::kSubbands; ++k) {
        const int bits = alloc[k];
        if (bits == 0) continue;
        for (int t = 0; t < audio::kBlocksPerGranule; ++t) {
          writer.put_bits(
              static_cast<std::uint64_t>(
                  levels[static_cast<std::size_t>(k) * audio::kBlocksPerGranule + t]),
              static_cast<unsigned>(bits));
        }
      }
      const auto bytes = writer.take();
      st->crc.update(bytes);
      sink->frame_crc = st->crc.value();
      sink->frame_bytes += bytes.size();
      ++sink->granules_packed;
    });
  }

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

void store_luma(TaskFiring& f, std::size_t k, const video::Frame& frame) {
  store_plane_packed(f, k, frame.y());
}

video::Frame frame_from_luma(const Payload& p, int w, int h) {
  video::Frame frame(w, h);
  const std::size_t n =
      std::min(p.size(), static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  frame.y().copy_packed_from(p.data(), n);
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
  const auto ops = analytic_video_ops(w, h);
  const core::VideoCosts costs{};
  return static_cast<double>(ops.idct_blocks) * costs.per_dct_block +
         static_cast<double>(ops.quant_coeffs) * costs.per_quant_coeff +
         static_cast<double>(ops.vlc_symbols) * costs.per_vlc_symbol +
         static_cast<double>(ops.mc_pixels) * costs.per_mc_pixel;
}

double analytic_encode_ops(int w, int h) {
  const auto ops = analytic_video_ops(w, h);
  const core::VideoCosts costs{};
  return static_cast<double>(ops.me_sad_ops) * costs.per_sad_op +
         static_cast<double>(ops.dct_blocks) * costs.per_dct_block +
         static_cast<double>(ops.quant_coeffs) * costs.per_quant_coeff +
         static_cast<double>(ops.vlc_symbols) * costs.per_vlc_symbol +
         analytic_decode_ops(w, h);
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
    store_luma(f, 0, st->last);
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
    auto crc = std::make_shared<common::Crc32>();
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
  const std::uint32_t bs = std::max<std::uint32_t>(64, config.block_size);
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
    auto crc = std::make_shared<common::Crc32>();
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
