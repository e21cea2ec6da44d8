// Executable bindings: attach real kernel bodies from this repository to
// the analytic task graphs, so the dataflow runtime runs the paper's
// Fig. 1 / Fig. 2 applications for real.
//
//  * Video encoder (Fig. 1): synthetic capture -> video::VideoEncoder's
//    stages on luma (three-step motion estimation, motion-compensated
//    prediction, 8x8 DCT, quantization, VLC of header, vectors and
//    blocks -> rate buffer; inverse DCT and reconstruction). Closed loop:
//    the reconstruction of frame i-1 feeds the estimator and predictor
//    of frame i over delay edges. I frames every 12 (EncoderConfig's
//    default). Each coded frame is a prefix of VideoEncoder's frame
//    (header, vectors, Y); the chroma planes, and with them a stream
//    video::VideoDecoder can decode, are not produced. State travels in
//    payloads, so output is bit-identical for any worker count.
//  * Audio encoder (Fig. 2): sine-mix PCM source -> audio::SubbandEncoder's
//    stages (32-band mapper, psychoacoustic model, quantizer/coder, frame
//    packer), so the stream equals the encoder's byte for byte and
//    decodes with audio::SubbandDecoder.
//  * Synthetic bodies: calibrated spin loops proportional to each task's
//    modeled work_ops, for scaling benches and engine tests.
//  * Boundary sessions (async I/O): a *streaming* session (RTP in ->
//    Fig. 1 decode path -> RTP out) and a *file transcode* session
//    (block read -> decode -> re-encode -> block write), both built on
//    one BoundarySession plumbing over the runtime/io adapters, so
//    device latency parks tasks instead of blocking workers. Their
//    endpoints follow the one fallible convention (fault.h): end of
//    stream yields empty units, and a device error that does not
//    recover fails the session — a transcode never reports success over
//    a missing input or a full volume. Each session can also be built
//    with inline (blocking) boundaries — the reference that tests
//    compare the async path against; an inline boundary error stops the
//    run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "mpsoc/taskgraph.h"
#include "runtime/io.h"
#include "runtime/shard.h"
#include "video/motion.h"

namespace mmsoc::runtime {

// ---------------------------------------------------------------------------
// Video encoder pipeline (Fig. 1)
// ---------------------------------------------------------------------------

struct VideoPipelineConfig {
  int width = 64;
  int height = 64;
  int qscale = 8;         ///< quantizer scale, [1, 31]
  int search_range = 8;   ///< motion search range, +/- pixels
  video::SearchAlgorithm algo = video::SearchAlgorithm::kThreeStep;
  std::uint64_t seed = 1; ///< synthetic scene seed
};

/// Everything the sink stages observed; lives behind a shared_ptr so the
/// caller can read it after the engine finishes.
struct VideoSinkState {
  std::uint32_t bitstream_crc = 0;   ///< chained CRC-32 over all coded frames
  std::uint64_t bitstream_bytes = 0;
  std::uint64_t vlc_symbols = 0;
  std::uint32_t recon_crc = 0;       ///< chained CRC-32 over reconstructed luma
  std::uint64_t frames_coded = 0;    ///< frames through the rate buffer
  std::uint64_t frames_reconstructed = 0;
};

struct VideoPipeline {
  mpsoc::TaskGraph graph;  ///< core::video_encoder_graph topology + bodies
  std::shared_ptr<VideoSinkState> sink;
};

/// Build a fully executable Fig. 1 encoder graph. Each call returns an
/// independent pipeline instance (bodies carry per-instance state), so a
/// multi-session engine needs one per session. Throws
/// std::invalid_argument for a size video::check_frame_size rejects.
[[nodiscard]] VideoPipeline make_video_encoder_pipeline(
    const VideoPipelineConfig& config);

// ---------------------------------------------------------------------------
// Audio encoder pipeline (Fig. 2)
// ---------------------------------------------------------------------------

struct AudioPipelineConfig {
  double sample_rate = 44100.0;
  double bitrate_bps = 192000.0;
  std::uint64_t seed = 1;
};

struct AudioSinkState {
  std::uint32_t frame_crc = 0;      ///< chained CRC-32 over packed frames
  std::uint64_t frame_bytes = 0;
  std::uint64_t granules_packed = 0;
};

struct AudioPipeline {
  mpsoc::TaskGraph graph;  ///< core::audio_encoder_graph topology + bodies
  std::shared_ptr<AudioSinkState> sink;
};

/// Build an executable Fig. 2 encoder graph (one per session, like the
/// video pipeline). Throws std::invalid_argument for rates that
/// audio::granule_bit_pool rejects.
[[nodiscard]] AudioPipeline make_audio_encoder_pipeline(
    const AudioPipelineConfig& config);

// ---------------------------------------------------------------------------
// Synthetic bodies
// ---------------------------------------------------------------------------

/// Digest of everything that reached the graph's sink tasks, XOR-reduced
/// (commutative, so identical across worker counts). Atomic because
/// distinct sink tasks may fire on distinct workers.
struct SyntheticSinkState {
  std::atomic<std::uint64_t> digest{0};
  std::atomic<std::uint64_t> tokens{0};
};

/// Attach deterministic spin-loop bodies to every task of `graph`: each
/// firing hashes its inputs and iteration index, burns roughly
/// `work_ops * ops_scale` arithmetic ops, and forwards an 8-byte digest.
/// Returns the shared sink state (digest of everything that reached the
/// graph's sinks).
std::shared_ptr<SyntheticSinkState> attach_synthetic_bodies(
    mpsoc::TaskGraph& graph, double ops_scale = 1.0);

/// A ready-to-run linear chain (source -> stage1 -> ... -> sink) with
/// synthetic bodies attached — the stress/saturation workload: cheap to
/// build by the thousand, deterministic digest, tunable per-firing cost.
struct SyntheticPipeline {
  mpsoc::TaskGraph graph;
  std::shared_ptr<SyntheticSinkState> sink;
};

/// Build an N-stage chain whose every stage burns ~`stage_ops` ops per
/// firing (`stages` >= 1; a 1-stage chain is a lone source/sink task).
[[nodiscard]] SyntheticPipeline make_synthetic_chain(std::size_t stages,
                                                     double stage_ops = 2000.0);

/// A chain with one deliberately skewed stage: stage `skew_stage` burns
/// `skew_factor` times the ops of the others. The work-stealing
/// scenario: under a static task->worker binding, sessions whose skewed
/// stage hints at the same worker wedge it while its neighbours idle.
[[nodiscard]] SyntheticPipeline make_skewed_chain(std::size_t stages,
                                                  double stage_ops,
                                                  std::size_t skew_stage,
                                                  double skew_factor = 10.0);

/// A skewed chain whose heavy stage additionally *blocks* its worker for
/// `block_us` per firing — modeling a fixed-function accelerator / DMA
/// the CPU hands a job to and waits out (the paper's §1 heterogeneous
/// SoC: CPUs next to DCT/ME engines). This is the steal scenario that
/// shows a real win on any host, including a single hardware thread:
/// with the skewed stages of many sessions hinted at one worker, a
/// static binding serializes the accelerator waits, while stealing
/// spreads the blocked tasks so the waits overlap. (Since the engine
/// fires batches with no queue lock held, a blocked task never prevents
/// thieves from migrating its queued neighbours.)
[[nodiscard]] SyntheticPipeline make_blocking_skewed_chain(
    std::size_t stages, double stage_ops, std::size_t skew_stage,
    double block_us);

// ---------------------------------------------------------------------------
// Boundary sessions (shared plumbing)
// ---------------------------------------------------------------------------

/// What the two boundary sessions share: a graph whose source task reads
/// an external endpoint and whose sink task writes one, the adapters
/// bridging them, and the submit/finish plumbing. Submit into a *running*
/// Engine (or ShardedEngine) — dynamic admission is required because the
/// boundary wakers only exist once the session is wired onto live
/// workers. Keep the object alive until the engine drained, then call
/// finish().
struct BoundarySession {
  mpsoc::TaskGraph graph{"boundary-session"};
  std::uint64_t frames = 0;
  /// Shared by the source and sink adapters: retired unit buffers cycle
  /// source -> pool -> sink copy -> pool (see PayloadPool).
  std::shared_ptr<PayloadPool> pool;
  std::unique_ptr<AsyncSource> source;  ///< null with inline boundaries
  std::unique_ptr<AsyncSink> sink;      ///< null with inline boundaries
  mpsoc::TaskId source_task = 0;
  mpsoc::TaskId sink_task = 0;

  /// Submit + wire the boundary wakers and the failure plumbing: a
  /// boundary that can no longer produce or persist — device error,
  /// retry budget exhausted, IoContext stopped — retires the session as
  /// kFailed with the failing unit. The engine must be running.
  [[nodiscard]] common::Result<std::size_t> submit_to(
      Engine& engine, const mpsoc::Mapping& mapping,
      SessionOptions options = {});
  [[nodiscard]] common::Result<SessionTicket> submit_to(
      ShardedEngine& sharded, const mpsoc::Mapping& mapping,
      SessionOptions options = {});
  /// Drain the device side of the sink boundary (call once the session
  /// closed). The session's report is final when this returns.
  void finish();
};

// ---------------------------------------------------------------------------
// Streaming session: RTP in -> decode path -> RTP out
// ---------------------------------------------------------------------------

struct StreamingSessionConfig {
  int width = 64;
  int height = 64;
  int qscale = 8;
  int gop_size = 8;          ///< I-frame cadence: concealment drift recovers here
  std::uint64_t frames = 24; ///< units = session iterations
  std::uint64_t seed = 1;
  // Network shaping, applied deterministically when the feed is built.
  double frame_interval_us = 33333.0;  ///< ~30 fps arrival spacing
  double loss_probability = 0.0;       ///< whole-packet drops (seeded)
  std::size_t reorder_span = 0;        ///< swap packets i and i+span (i step 2*span)
  std::uint32_t playout_delay_units = 3;
  // Boundary behaviour.
  bool async_boundaries = true;  ///< false = blocking inline reference for tests
  std::size_t io_depth = 4;
  double time_scale = 0.0;  ///< 1.0 = model arrival gaps as real sleeps
  // Fault injection & recovery (fault.h). The async boundaries always
  // follow the TryReadFn/TryWriteFn convention: transient errors retry
  // under `retry`, terminal failures retire the session through
  // Engine::fail_session. A non-null injector additionally wraps the
  // ingress/egress ops (endpoints "rtp.in" / "rtp.out"). Borrowed — must
  // outlive the session. Ignored with inline boundaries.
  FaultInjector* fault = nullptr;
  FaultPlan ingress_faults;
  FaultPlan egress_faults;
  RetryPolicy retry;
};

/// What the decode/display stages observed (read after the engine drained).
struct StreamingState {
  std::uint64_t frames_decoded = 0;
  /// Units that could not be decoded (lost+concealed or corrupt): the
  /// stage repeated the last good frame — the documented drop policy.
  std::uint64_t decode_conceals = 0;
  std::uint32_t luma_crc = 0;  ///< chained CRC over every displayed luma plane
  std::uint64_t luma_bytes = 0;
};

/// The endpoints a streaming session's adapters call from I/O threads.
/// Listed as a base *before* BoundarySession so it is destroyed after
/// it: the adapters quiesce before the endpoints they call go away.
struct RtpSessionEndpoints {
  std::shared_ptr<RtpIngress> ingress;  ///< jitter/loss stats live here
  std::shared_ptr<RtpEgress> egress;
};

/// A built streaming session (source = RTP ingress, sink = RTP egress).
struct StreamingSession : RtpSessionEndpoints, BoundarySession {
  std::shared_ptr<StreamingState> state;
};

/// Build a streaming session: pre-encodes `frames` synthetic frames,
/// packetizes them over RTP, applies the configured loss/reorder to the
/// feed, and binds ingress -> decode -> display -> egress. The decode
/// stage is the Fig. 1 decode loop (VLD, dequant, IDCT, MC predictor,
/// reconstruction) realized by video::VideoDecoder; its reference-frame
/// state keeps the whole loop in one task for determinism. Throws
/// std::invalid_argument for a size video::check_frame_size rejects.
[[nodiscard]] StreamingSession make_streaming_session(
    IoContext& io, const StreamingSessionConfig& config = {});

// ---------------------------------------------------------------------------
// File transcode session: block read -> decode -> encode -> block write
// ---------------------------------------------------------------------------

struct TranscodeSessionConfig {
  int width = 64;
  int height = 64;
  int in_qscale = 6;    ///< quality of the stored input stream
  int out_qscale = 12;  ///< re-encode target (rate reduction)
  int gop_size = 8;
  std::uint64_t frames = 24;
  std::uint64_t seed = 1;
  // Boundary behaviour.
  bool async_boundaries = true;  ///< false = blocking inline reference for tests
  std::size_t io_depth = 4;
  double time_scale = 0.0;  ///< 1.0 = charge modeled disk time as real sleeps
  fs::BlockDevice::TimingModel timing{};
  std::uint32_t block_size = 512;
  // Fault injection & recovery (fault.h) — see StreamingSessionConfig.
  // Endpoints register as "file.read" / "file.write". A volume error is
  // permanent: with or without an injector it fails the session.
  FaultInjector* fault = nullptr;
  FaultPlan read_faults;
  FaultPlan write_faults;
  RetryPolicy retry;
};

struct TranscodeState {
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_encoded = 0;
  std::uint64_t decode_conceals = 0;
  std::uint64_t bytes_out = 0;
  std::uint32_t out_crc = 0;  ///< chained CRC over re-encoded units
};

/// The volume and endpoints a transcode session's adapters call from I/O
/// threads (destroyed after the adapters, see RtpSessionEndpoints).
struct FileSessionEndpoints {
  std::unique_ptr<fs::BlockDevice> device;
  std::unique_ptr<fs::FatVolume> volume;
  std::shared_ptr<std::mutex> volume_mu;  ///< serializes source/sink on the volume
  std::shared_ptr<BlockFileSource> reader_endpoint;
  std::shared_ptr<BlockFileSink> writer_endpoint;
  std::string out_path;
};

/// A built file transcode session (source = block read, sink = block
/// write).
struct FileTranscodeSession : FileSessionEndpoints, BoundarySession {
  std::shared_ptr<TranscodeState> state;
};

/// Build a file transcode session: formats a FAT volume on a fresh
/// BlockDevice, encodes `frames` synthetic frames at in_qscale into
/// "/in.bit" (recording a unit index), and binds block-read -> decode ->
/// re-encode(out_qscale) -> block-write("/out.bit"). Device stats are
/// reset after the prep writes so modeled I/O time measures the
/// transcode only. Fails with kInvalidArgument for a size
/// video::check_frame_size rejects or a block_size below
/// fs::kMinBlockSize, otherwise only on device/volume errors.
[[nodiscard]] common::Result<FileTranscodeSession> make_file_transcode_session(
    IoContext& io, const TranscodeSessionConfig& config = {});

/// Round-robin mapping helper for the boundary sessions: task t -> PE
/// (t mod pes). With pes >= task count each stage gets its own worker.
[[nodiscard]] mpsoc::Mapping round_robin_mapping(const mpsoc::TaskGraph& graph,
                                                 std::size_t pes);

}  // namespace mmsoc::runtime
