// Tests for the audio subsystem: filterbank, psychoacoustic model, bit
// allocation, the Fig. 2 subband codec, RPE-LTP, sources, and metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audio/allocation.h"
#include "audio/filterbank.h"
#include "audio/metrics.h"
#include "audio/psycho.h"
#include "audio/rpe_ltp.h"
#include "audio/source.h"
#include "audio/subband_codec.h"
#include "common/mathutil.h"
#include "common/rng.h"

namespace mmsoc::audio {
namespace {

using common::Rng;

// --------------------------------------------------------------- filterbank

TEST(Filterbank, PerfectReconstructionWithOneBlockDelay) {
  Rng rng(1);
  const int blocks = 40;
  std::vector<double> input(static_cast<std::size_t>(blocks) * kSubbands);
  for (auto& v : input) v = rng.next_double_in(-1.0, 1.0);

  SubbandAnalyzer an;
  SubbandSynthesizer sy;
  std::vector<double> output;
  for (int b = 0; b < blocks; ++b) {
    const auto bands = an.analyze(std::span<const double, kSubbands>(
        input.data() + b * kSubbands, kSubbands));
    const auto pcm = sy.synthesize(bands);
    output.insert(output.end(), pcm.begin(), pcm.end());
  }
  // Reconstruction is exact after the kSubbands-sample TDAC delay.
  double max_err = 0.0;
  for (std::size_t i = kSubbands; i + kSubbands < output.size(); ++i) {
    max_err = std::max(max_err, std::abs(output[i] - input[i - kSubbands]));
  }
  EXPECT_LT(max_err, 1e-10);
}

TEST(Filterbank, ToneLandsInCorrectSubband) {
  // A tone at the center of subband k concentrates energy there.
  const double fs = 32000.0;
  const int target_band = 5;
  const double hz = (target_band + 0.5) * fs / (2.0 * kSubbands);
  const auto tone = make_tone(kSubbands * 64, fs, hz, 0.9);

  SubbandAnalyzer an;
  std::array<double, kSubbands> energy{};
  for (int b = 0; b < 64; ++b) {
    const auto bands = an.analyze(std::span<const double, kSubbands>(
        tone.data() + b * kSubbands, kSubbands));
    for (int k = 0; k < kSubbands; ++k)
      energy[static_cast<std::size_t>(k)] +=
          bands[static_cast<std::size_t>(k)] * bands[static_cast<std::size_t>(k)];
  }
  int peak = 0;
  for (int k = 1; k < kSubbands; ++k)
    if (energy[static_cast<std::size_t>(k)] > energy[static_cast<std::size_t>(peak)]) peak = k;
  EXPECT_EQ(peak, target_band);
  // Dominance: at least 10x over bands two away.
  EXPECT_GT(energy[target_band], 10.0 * energy[target_band + 2]);
}

TEST(Filterbank, SilenceInSilenceOut) {
  SubbandAnalyzer an;
  std::array<double, kSubbands> zeros{};
  const auto bands = an.analyze(std::span<const double, kSubbands>(zeros));
  for (const auto b : bands) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Filterbank, ResetClearsState) {
  Rng rng(2);
  std::array<double, kSubbands> block;
  for (auto& v : block) v = rng.next_double_in(-1, 1);
  SubbandAnalyzer a1, a2;
  a1.analyze(std::span<const double, kSubbands>(block));
  a1.reset();
  const auto r1 = a1.analyze(std::span<const double, kSubbands>(block));
  const auto r2 = a2.analyze(std::span<const double, kSubbands>(block));
  EXPECT_EQ(r1, r2);
}

// ------------------------------------------------------------------- psycho

TEST(Psycho, StrongToneRaisesNeighbourThreshold) {
  // The paper's masking claim (§4), directly: a strong masker raises the
  // threshold in nearby bands far above the quiet threshold.
  const double fs = 32000.0;
  const PsychoModel model(fs);
  const auto tone = make_tone(1024, fs, 5250.0, 0.8);  // band 10 of 32
  const auto r = model.analyze(tone);
  const int band = 10;
  EXPECT_GT(r.threshold_db[band + 1],
            PsychoModel::absolute_threshold_db((band + 1.5) * fs / 64.0) + 20.0);
  // Threshold decays with distance from the masker.
  EXPECT_GT(r.threshold_db[band + 1], r.threshold_db[band + 4]);
}

TEST(Psycho, SilenceFallsBackToQuietThreshold) {
  const PsychoModel model(44100.0);
  const std::vector<double> silence(1024, 0.0);
  const auto r = model.analyze(silence);
  for (int k = 0; k < kSubbands; ++k) {
    EXPECT_LE(r.signal_db[static_cast<std::size_t>(k)], -80.0);
    // Threshold equals the absolute threshold (quiet curve).
    const double hz = (k + 0.5) * 44100.0 / 64.0;
    EXPECT_NEAR(r.threshold_db[static_cast<std::size_t>(k)],
                PsychoModel::absolute_threshold_db(hz), 1e-6);
  }
}

TEST(Psycho, ToneVsNoiseTonality) {
  const PsychoModel model(32000.0);
  const auto tone = model.analyze(make_tone(1024, 32000.0, 3000.0, 0.7));
  const auto noise = model.analyze(make_noise(1024, 0.7, 3));
  EXPECT_LT(tone.spectral_flatness, 0.1);
  EXPECT_GT(noise.spectral_flatness, 0.3);
}

TEST(Psycho, MaskedProbeHasNegativeSmr) {
  // A -60 dB probe 1.07x above a full-scale masker is inaudible; its
  // band's SMR must be dominated by the masker's spread, i.e. the probe
  // band needs no bits. We check the probe band's threshold exceeds the
  // probe level.
  const double fs = 32000.0;
  const PsychoModel model(fs);
  const double masker_hz = 5250.0;  // band 10
  const double probe_hz = 6250.0;   // band 12
  const auto sig = make_masking_pair(1024, fs, masker_hz, probe_hz, 0.001);
  const auto r = model.analyze(sig);
  EXPECT_LT(r.smr_db[12], r.smr_db[10]);  // probe band far more masked
}

TEST(Psycho, AbsoluteThresholdShape) {
  // Most sensitive region near 3-4 kHz; rises steeply at both extremes.
  const double at100 = PsychoModel::absolute_threshold_db(100.0);
  const double at3500 = PsychoModel::absolute_threshold_db(3500.0);
  const double at16000 = PsychoModel::absolute_threshold_db(16000.0);
  EXPECT_LT(at3500, at100);
  EXPECT_LT(at3500, at16000);
}

// --------------------------------------------------------------- allocation

TEST(Allocation, MaskedBandsGetZeroBits) {
  std::array<double, kSubbands> smr{};
  smr.fill(-10.0);  // everything masked
  smr[3] = 30.0;
  smr[7] = 12.0;
  const auto alloc = allocate_bits(smr, 200, 1);
  for (int k = 0; k < kSubbands; ++k) {
    if (k == 3 || k == 7) {
      EXPECT_GT(alloc[static_cast<std::size_t>(k)], 0);
    } else {
      EXPECT_EQ(alloc[static_cast<std::size_t>(k)], 0);
    }
  }
}

TEST(Allocation, HigherSmrGetsMoreBits) {
  std::array<double, kSubbands> smr{};
  smr[0] = 40.0;
  smr[1] = 20.0;
  smr[2] = 5.0;
  const auto alloc = allocate_bits(smr, 60, 1);
  EXPECT_GE(alloc[0], alloc[1]);
  EXPECT_GE(alloc[1], alloc[2]);
}

TEST(Allocation, RespectsBitPool) {
  std::array<double, kSubbands> smr{};
  smr.fill(60.0);
  const int pool = 37;
  const auto alloc = allocate_bits(smr, pool, 1);
  int used = 0;
  for (const auto b : alloc) used += b;
  EXPECT_LE(used, pool);
}

TEST(Allocation, SamplesPerBandScalesCost) {
  std::array<double, kSubbands> smr{};
  smr.fill(60.0);
  const auto cheap = allocate_bits(smr, 120, 1);
  const auto costly = allocate_bits(smr, 120, 12);
  int cheap_bits = 0, costly_bits = 0;
  for (const auto b : cheap) cheap_bits += b;
  for (const auto b : costly) costly_bits += b;
  EXPECT_GT(cheap_bits, costly_bits);
  EXPECT_LE(costly_bits * 12, 120);
}

TEST(Allocation, StopsWhenEverythingSatisfied) {
  std::array<double, kSubbands> smr{};
  smr[0] = 11.0;  // needs 2 bits (12.04 dB)
  const auto alloc = allocate_bits(smr, 10000, 1);
  EXPECT_EQ(alloc[0], 2);
  EXPECT_GE(worst_mnr_db(smr, alloc), 0.0);
}

TEST(Allocation, CapsAtMaxBits) {
  std::array<double, kSubbands> smr{};
  smr[0] = 500.0;  // insatiable
  const auto alloc = allocate_bits(smr, 10000, 1);
  EXPECT_EQ(alloc[0], kMaxBitsPerSample);
}

// ------------------------------------------------------------ subband codec

AudioEncoderConfig codec_config(double bitrate = 192000.0, bool psycho = true) {
  AudioEncoderConfig c;
  c.sample_rate = 32000.0;
  c.bitrate_bps = bitrate;
  c.use_psycho = psycho;
  return c;
}

TEST(SubbandCodec, RoundTripQualityOnMusic) {
  const auto cfg = codec_config(256000.0);
  SubbandEncoder enc(cfg);
  SubbandDecoder dec;
  const auto music = make_music(kGranuleSamples * 24, cfg.sample_rate, 5);

  std::vector<double> decoded;
  for (int g = 0; g < 24; ++g) {
    const auto e = enc.encode(std::span<const double, kGranuleSamples>(
        music.data() + g * kGranuleSamples, kGranuleSamples));
    auto d = dec.decode(e.bytes);
    ASSERT_TRUE(d.is_ok());
    decoded.insert(decoded.end(), d.value().samples.begin(),
                   d.value().samples.end());
  }
  // Account for the filterbank's one-block delay.
  std::vector<double> ref(music.begin(),
                          music.end() - kSubbands);
  std::vector<double> test(decoded.begin() + kSubbands, decoded.end());
  const double q = snr_db(std::span<const double>(ref).subspan(kGranuleSamples),
                          std::span<const double>(test).subspan(kGranuleSamples));
  EXPECT_GT(q, 15.0);  // comfortably intelligible subband coding
}

TEST(SubbandCodec, AncillaryDataRoundTrip) {
  SubbandEncoder enc(codec_config());
  SubbandDecoder dec;
  const auto music = make_music(kGranuleSamples, 32000.0, 6);
  const std::vector<std::uint8_t> anc = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  const auto e = enc.encode(
      std::span<const double, kGranuleSamples>(music.data(), kGranuleSamples),
      anc);
  auto d = dec.decode(e.bytes);
  ASSERT_TRUE(d.is_ok());
  EXPECT_EQ(d.value().ancillary, anc);
}

TEST(SubbandCodec, HigherBitrateBetterQuality) {
  const auto music = make_music(kGranuleSamples * 16, 32000.0, 7);
  auto run = [&](double bitrate) {
    SubbandEncoder enc(codec_config(bitrate));
    SubbandDecoder dec;
    std::vector<double> decoded;
    for (int g = 0; g < 16; ++g) {
      const auto e = enc.encode(std::span<const double, kGranuleSamples>(
          music.data() + g * kGranuleSamples, kGranuleSamples));
      auto d = dec.decode(e.bytes);
      decoded.insert(decoded.end(), d.value().samples.begin(),
                     d.value().samples.end());
    }
    std::vector<double> ref(music.begin(), music.end() - kSubbands);
    std::vector<double> test(decoded.begin() + kSubbands, decoded.end());
    return snr_db(std::span<const double>(ref).subspan(kGranuleSamples),
                  std::span<const double>(test).subspan(kGranuleSamples));
  };
  EXPECT_GT(run(320000.0), run(96000.0) + 3.0);
}

TEST(SubbandCodec, FrameSizeTracksBitrate) {
  const auto music = make_music(kGranuleSamples, 32000.0, 8);
  for (const double rate : {64000.0, 128000.0, 256000.0}) {
    SubbandEncoder enc(codec_config(rate));
    const auto e = enc.encode(std::span<const double, kGranuleSamples>(
        music.data(), kGranuleSamples));
    const double granule_seconds = kGranuleSamples / 32000.0;
    const double budget_bits = rate * granule_seconds;
    EXPECT_LT(static_cast<double>(e.bytes.size()) * 8, budget_bits * 1.15)
        << "rate " << rate;
  }
}

TEST(SubbandCodec, CorruptSyncRejected) {
  SubbandEncoder enc(codec_config());
  const auto music = make_music(kGranuleSamples, 32000.0, 9);
  auto e = enc.encode(std::span<const double, kGranuleSamples>(
      music.data(), kGranuleSamples));
  e.bytes[0] ^= 0xFF;
  SubbandDecoder dec;
  EXPECT_FALSE(dec.decode(e.bytes).is_ok());
}

TEST(SubbandCodec, TruncatedFrameRejected) {
  SubbandEncoder enc(codec_config());
  const auto music = make_music(kGranuleSamples, 32000.0, 10);
  auto e = enc.encode(std::span<const double, kGranuleSamples>(
      music.data(), kGranuleSamples));
  e.bytes.resize(e.bytes.size() / 4);
  SubbandDecoder dec;
  EXPECT_FALSE(dec.decode(e.bytes).is_ok());
}

TEST(SubbandCodec, StageOpsPopulated) {
  SubbandEncoder enc(codec_config());
  const auto music = make_music(kGranuleSamples, 32000.0, 11);
  const auto e = enc.encode(std::span<const double, kGranuleSamples>(
      music.data(), kGranuleSamples));
  EXPECT_GT(e.ops.mapper_macs, 0u);
  EXPECT_GT(e.ops.psycho_ops, 0u);
  EXPECT_GT(e.ops.quant_ops, 0u);
  EXPECT_EQ(e.ops.packer_bits, e.bytes.size() * 8);
}

TEST(SubbandCodec, ScalefactorTableMatchesPowLadder) {
  const auto value = [](int i) {
    return 32.0 * std::pow(2.0, -static_cast<double>(std::clamp(i, 0, 62)) / 3.0);
  };
  const auto index_for = [&](double m) {
    for (int i = 62; i >= 0; --i) {
      if (value(i) >= m) return i;
    }
    return 0;
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = -2; i <= 64; ++i) {
    ASSERT_EQ(scalefactor_value(i), value(i)) << "index " << i;
    const double v = value(i);
    for (const double m : {std::nextafter(v, 0.0), v, std::nextafter(v, inf)}) {
      EXPECT_EQ(scalefactor_index_for(m), index_for(m)) << "magnitude " << m;
    }
  }
  for (const double m : {0.0, 33.0, 1e9, inf,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(scalefactor_index_for(m), index_for(m)) << "magnitude " << m;
  }
}

TEST(SubbandCodec, RejectsBadRates) {
  for (const auto& [rate, bitrate] :
       {std::pair{0.0, 192000.0}, std::pair{32000.0, -5.0},
        std::pair{std::nan(""), 192000.0}, std::pair{32000.0, 1e12}}) {
    AudioEncoderConfig cfg = codec_config(bitrate);
    cfg.sample_rate = rate;
    EXPECT_THROW(SubbandEncoder{cfg}, std::invalid_argument)
        << rate << " Hz, " << bitrate << " bit/s";
  }
}

TEST(SubbandCodec, PsychoModelStarvesMaskedProbeBand) {
  // §4: masked components can be dropped. A -54 dB probe two bands above
  // a near-full-scale masker is inaudible. With the model on, its band
  // must get no bits at a tight budget; a power-only allocator (model
  // off) wastes bits on it because its power is well above the floor.
  const double fs = 32000.0;
  const double masker_hz = 5250.0;  // band 10
  const double probe_hz = 6250.0;   // band 12
  const auto sig = make_masking_pair(static_cast<std::size_t>(kGranuleSamples),
                                     fs, masker_hz, probe_hz, 0.002);
  // 48 kbit/s: tight enough that masking decisions bind (at generous
  // rates the allocator legitimately spends spare margin everywhere).
  SubbandEncoder with(codec_config(48000.0, true));
  SubbandEncoder without(codec_config(48000.0, false));
  const auto ew = with.encode(std::span<const double, kGranuleSamples>(
      sig.data(), kGranuleSamples));
  const auto eo = without.encode(std::span<const double, kGranuleSamples>(
      sig.data(), kGranuleSamples));
  const int probe_band = 12;
  EXPECT_EQ(ew.allocation[probe_band], 0);
  EXPECT_GT(eo.allocation[probe_band], 0);
  // Both must still transmit the masker band.
  EXPECT_GT(ew.allocation[10], 0);
  EXPECT_GT(eo.allocation[10], 0);
}

// ----------------------------------------------------------------- rpe-ltp

TEST(RpeLtp, FrameSizeIsFixed) {
  RpeLtpEncoder enc;
  const auto speech = to_pcm16(make_speech(kGsmFrameSamples, 8000.0, 1));
  const auto bytes = enc.encode(std::span<const std::int16_t, kGsmFrameSamples>(
      speech.data(), kGsmFrameSamples));
  EXPECT_EQ(bytes.size(), kGsmFrameBytes);
}

TEST(RpeLtp, SpeechRoundTripIntelligible) {
  RpeLtpEncoder enc;
  RpeLtpDecoder dec;
  const std::size_t frames = 25;  // 0.5 s
  const auto speech = make_speech(frames * kGsmFrameSamples, 8000.0, 2);
  const auto pcm = to_pcm16(speech);

  std::vector<double> decoded;
  for (std::size_t f = 0; f < frames; ++f) {
    const auto bytes = enc.encode(std::span<const std::int16_t, kGsmFrameSamples>(
        pcm.data() + f * kGsmFrameSamples, kGsmFrameSamples));
    auto d = dec.decode(bytes);
    ASSERT_TRUE(d.is_ok());
    for (const auto v : d.value()) decoded.push_back(static_cast<double>(v) / 32767.0);
  }
  // Parametric speech coding: expect positive segmental SNR (GSM-FR
  // achieves ~8-12 dB segSNR on speech; our simplified coder less).
  const double seg = segmental_snr_db(speech, decoded, 160);
  EXPECT_GT(seg, 2.0);
}

TEST(RpeLtp, VoicedFramesExploitPitch) {
  // On strongly periodic input the LTP should do real work: decoded
  // energy must track input energy within a few dB.
  RpeLtpEncoder enc;
  RpeLtpDecoder dec;
  const auto tone = make_tone(kGsmFrameSamples * 10, 8000.0, 100.0, 0.45);
  const auto pcm = to_pcm16(tone);
  std::vector<double> decoded;
  for (int f = 0; f < 10; ++f) {
    const auto bytes = enc.encode(std::span<const std::int16_t, kGsmFrameSamples>(
        pcm.data() + static_cast<std::size_t>(f) * kGsmFrameSamples, kGsmFrameSamples));
    auto d = dec.decode(bytes);
    ASSERT_TRUE(d.is_ok());
    for (const auto v : d.value()) decoded.push_back(static_cast<double>(v) / 32767.0);
  }
  double in_e = 0.0, out_e = 0.0;
  // Skip the first two frames of adaptation.
  for (std::size_t i = 2 * kGsmFrameSamples; i < decoded.size(); ++i) {
    in_e += tone[i] * tone[i];
    out_e += decoded[i] * decoded[i];
  }
  ASSERT_GT(out_e, 0.0);
  const double ratio_db = 10.0 * std::log10(out_e / in_e);
  EXPECT_NEAR(ratio_db, 0.0, 4.0);
}

TEST(RpeLtp, BitrateIsGsmClass) {
  // 34 bytes / 20 ms = 13.6 kbps — the GSM full-rate class.
  const double bitrate = kGsmFrameBytes * 8 / 0.020;
  EXPECT_NEAR(bitrate, 13600.0, 1.0);
}

TEST(RpeLtp, ShortFrameRejected) {
  RpeLtpDecoder dec;
  const std::vector<std::uint8_t> tiny(5, 0);
  EXPECT_FALSE(dec.decode(tiny).is_ok());
}

TEST(RpeLtp, SilenceStaysQuiet) {
  RpeLtpEncoder enc;
  RpeLtpDecoder dec;
  const std::vector<std::int16_t> silence(kGsmFrameSamples, 0);
  for (int f = 0; f < 3; ++f) {
    const auto bytes = enc.encode(std::span<const std::int16_t, kGsmFrameSamples>(
        silence.data(), kGsmFrameSamples));
    auto d = dec.decode(bytes);
    ASSERT_TRUE(d.is_ok());
    for (const auto v : d.value()) EXPECT_LT(std::abs(v), 400);
  }
}

TEST(LevinsonDurbin, RecoversArProcess) {
  // Synthesize an AR(2) process and verify LPC recovers its poles.
  Rng rng(3);
  const double a1 = 1.2, a2 = -0.6;
  std::vector<double> x(4000, 0.0);
  for (std::size_t n = 2; n < x.size(); ++n) {
    x[n] = a1 * x[n - 1] + a2 * x[n - 2] + rng.next_gaussian();
  }
  std::array<double, 3> autocorr{};
  for (int lag = 0; lag <= 2; ++lag) {
    for (std::size_t n = static_cast<std::size_t>(lag); n < x.size(); ++n)
      autocorr[static_cast<std::size_t>(lag)] += x[n] * x[n - static_cast<std::size_t>(lag)];
  }
  std::array<double, 2> lpc{}, refl{};
  ASSERT_TRUE(levinson_durbin(autocorr, lpc, refl));
  EXPECT_NEAR(lpc[0], a1, 0.1);
  EXPECT_NEAR(lpc[1], a2, 0.1);
}

TEST(LevinsonDurbin, DegenerateSignalFails) {
  const std::array<double, 9> zeros{};
  std::array<double, kLpcOrder> lpc{}, refl{};
  EXPECT_FALSE(levinson_durbin(zeros, lpc, refl));
}

TEST(Lar, TransformPairRoundTrips) {
  for (double r = -0.95; r <= 0.95; r += 0.05) {
    EXPECT_NEAR(reflection_from_lar(lar_from_reflection(r)), r, 1e-9);
  }
}

// ------------------------------------------------------------------ sources

TEST(Source, SpeechHasVoicedAndUnvoicedStructure) {
  const double fs = 8000.0;
  const auto speech = make_speech(static_cast<std::size_t>(fs), fs, 4);
  // Voiced segment (first 150 ms): strong low-frequency periodicity.
  // Unvoiced segment (next 150 ms): higher zero-crossing rate.
  auto zcr = [&](std::size_t start, std::size_t len) {
    int crossings = 0;
    for (std::size_t i = start + 1; i < start + len; ++i) {
      if ((speech[i] >= 0) != (speech[i - 1] >= 0)) ++crossings;
    }
    return static_cast<double>(crossings) / static_cast<double>(len);
  };
  const auto seg = static_cast<std::size_t>(fs * 0.15);
  EXPECT_GT(zcr(seg, seg), 2.0 * zcr(0, seg));
}

TEST(Source, DeterministicForSeed) {
  EXPECT_EQ(make_speech(1000, 8000.0, 7), make_speech(1000, 8000.0, 7));
  EXPECT_NE(make_speech(1000, 8000.0, 7), make_speech(1000, 8000.0, 8));
}

TEST(Source, PcmConversionRoundTrip) {
  const auto x = make_music(500, 32000.0, 9);
  const auto back = from_pcm16(to_pcm16(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1.0 / 32000.0);
  }
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, SnrIdenticalCapped) {
  const auto x = make_tone(1000, 8000.0, 440.0);
  EXPECT_DOUBLE_EQ(snr_db(x, x), 99.0);
}

TEST(Metrics, SnrKnownValue) {
  std::vector<double> ref(1000, 1.0);
  std::vector<double> test(1000, 0.9);  // noise power 0.01 -> SNR 20 dB
  EXPECT_NEAR(snr_db(ref, test), 20.0, 1e-6);
}

TEST(Metrics, AlignmentFindsShift) {
  const auto x = make_music(2000, 32000.0, 10);
  std::vector<double> shifted(x.size() + 37, 0.0);
  std::copy(x.begin(), x.end(), shifted.begin() + 37);
  EXPECT_EQ(best_alignment(x, shifted, 64), 37u);
}

}  // namespace
}  // namespace mmsoc::audio
