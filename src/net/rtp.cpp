#include "net/rtp.h"

#include <cmath>

#include "dsp/crc32.h"

namespace mmsoc::net {

std::vector<std::uint8_t> MediaPacket::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(10 + payload.size() + 4);
  out.push_back(static_cast<std::uint8_t>(sequence >> 8));
  out.push_back(static_cast<std::uint8_t>(sequence));
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(timestamp >> (8 * i)));
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  const auto crc = dsp::crc32(out);
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

std::optional<MediaPacket> MediaPacket::parse(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 14) return std::nullopt;
  const auto stored_crc =
      (static_cast<std::uint32_t>(bytes[bytes.size() - 4]) << 24) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 3]) << 16) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 2]) << 8) |
      bytes[bytes.size() - 1];
  if (dsp::crc32(bytes.first(bytes.size() - 4)) != stored_crc) {
    return std::nullopt;
  }
  MediaPacket p;
  p.sequence = static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1]);
  p.timestamp = (static_cast<std::uint32_t>(bytes[2]) << 24) |
                (static_cast<std::uint32_t>(bytes[3]) << 16) |
                (static_cast<std::uint32_t>(bytes[4]) << 8) | bytes[5];
  const auto len = (static_cast<std::uint32_t>(bytes[6]) << 24) |
                   (static_cast<std::uint32_t>(bytes[7]) << 16) |
                   (static_cast<std::uint32_t>(bytes[8]) << 8) | bytes[9];
  if (10 + len + 4 != bytes.size()) return std::nullopt;
  p.payload.assign(bytes.begin() + 10, bytes.begin() + 10 + len);
  return p;
}

std::vector<std::uint8_t> RtpSender::packetize(
    std::span<const std::uint8_t> payload, std::uint32_t ts) {
  MediaPacket p;
  p.sequence = seq_++;
  p.timestamp = ts;
  p.payload.assign(payload.begin(), payload.end());
  return p.serialize();
}

void RtpReceiver::push(std::span<const std::uint8_t> bytes, double arrival_us) {
  auto p = MediaPacket::parse(bytes);
  if (!p.has_value()) return;  // corrupt
  ++received_;
  if (!started_) {
    started_ = true;
    next_play_ = p->sequence;
  }
  // RFC 3550 jitter: J += (|D| - J) / 16 where D is the interarrival
  // difference relative to media timestamps.
  if (have_prev_) {
    const double transit_diff = (arrival_us - prev_arrival_us_) -
                                (static_cast<double>(p->timestamp) -
                                 static_cast<double>(prev_ts_));
    jitter_ += (std::abs(transit_diff) - jitter_) / 16.0;
  }
  have_prev_ = true;
  prev_arrival_us_ = arrival_us;
  prev_ts_ = p->timestamp;

  buffer_[p->sequence] = std::move(*p);
}

std::optional<RtpReceiver::PlayoutUnit> RtpReceiver::pop() {
  if (!started_) return std::nullopt;
  const auto it = buffer_.find(next_play_);
  if (it != buffer_.end()) {
    PlayoutUnit unit;
    unit.payload = std::move(it->second.payload);
    unit.sequence = next_play_;
    last_payload_ = unit.payload;
    buffer_.erase(it);
    ++next_play_;
    return unit;
  }
  // Missing: only conceal once enough future packets are queued (i.e. the
  // gap has aged past the jitter buffer).
  std::size_t ahead = 0;
  for (const auto& [seq, pkt] : buffer_) {
    if (static_cast<std::uint16_t>(seq - next_play_) < 0x8000) ++ahead;
  }
  if (ahead >= playout_delay_) {
    PlayoutUnit unit;
    unit.payload = last_payload_;
    unit.concealed = true;
    unit.sequence = next_play_;
    ++concealed_count_;
    ++next_play_;
    return unit;
  }
  return std::nullopt;
}

std::optional<RtpReceiver::PlayoutUnit> RtpReceiver::pop_flush() {
  if (auto unit = pop()) return unit;
  if (!started_ || buffer_.empty()) return std::nullopt;
  // A gap with buffered successors at end of stream: conceal immediately
  // and advance, so the packets that *did* arrive behind it still play.
  PlayoutUnit unit;
  unit.payload = last_payload_;
  unit.concealed = true;
  unit.sequence = next_play_;
  ++concealed_count_;
  ++next_play_;
  return unit;
}

}  // namespace mmsoc::net
