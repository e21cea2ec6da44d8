#include "net/tcp_lite.h"

#include <algorithm>

#include "common/bitstream.h"
#include "dsp/crc32.h"

namespace mmsoc::net {

std::vector<std::uint8_t> Segment::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(13 + payload.size() + 4);
  const auto put32 = [&](std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 24));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  };
  put32(seq);
  put32(ack);
  out.push_back(is_ack ? 1 : 0);
  put32(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  const auto crc = dsp::crc32(out);
  put32(crc);
  return out;
}

std::optional<Segment> Segment::parse(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 17) return std::nullopt;
  const auto get32 = [&](std::size_t off) {
    return (static_cast<std::uint32_t>(bytes[off]) << 24) |
           (static_cast<std::uint32_t>(bytes[off + 1]) << 16) |
           (static_cast<std::uint32_t>(bytes[off + 2]) << 8) | bytes[off + 3];
  };
  const auto stored_crc = get32(bytes.size() - 4);
  if (dsp::crc32(bytes.first(bytes.size() - 4)) != stored_crc) {
    return std::nullopt;  // corrupted on the wire: treated as lost
  }
  Segment s;
  s.seq = get32(0);
  s.ack = get32(4);
  s.is_ack = bytes[8] != 0;
  const auto len = get32(9);
  if (13 + len + 4 != bytes.size()) return std::nullopt;
  s.payload.assign(bytes.begin() + 13, bytes.begin() + 13 + len);
  return s;
}

void TcpLiteEndpoint::send(std::span<const std::uint8_t> data) {
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
}

std::vector<std::uint8_t> TcpLiteEndpoint::take_received() {
  std::vector<std::uint8_t> out(recv_buffer_.begin(), recv_buffer_.end());
  recv_buffer_.clear();
  return out;
}

void TcpLiteEndpoint::poll(double now_us,
                           std::vector<std::vector<std::uint8_t>>& incoming,
                           std::vector<std::vector<std::uint8_t>>& outgoing) {
  // ---- Ingest.
  for (auto& raw : incoming) {
    const auto seg = Segment::parse(raw);
    if (!seg.has_value()) continue;  // corrupt -> drop

    // ACK processing (cumulative).
    if (seg->ack > acked_until_) {
      acked_until_ = seg->ack;
      std::erase_if(inflight_, [&](const InFlight& f) {
        return f.seq + f.payload.size() <= acked_until_;
      });
    }
    if (seg->is_ack) continue;

    // Data processing.
    if (seg->seq == expected_seq_) {
      recv_buffer_.insert(recv_buffer_.end(), seg->payload.begin(),
                          seg->payload.end());
      expected_seq_ += static_cast<std::uint32_t>(seg->payload.size());
      // Drain any stashed out-of-order segments that are now in order.
      bool progressed = true;
      while (progressed) {
        progressed = false;
        for (auto it = ooo_.begin(); it != ooo_.end(); ++it) {
          if (it->seq == expected_seq_) {
            recv_buffer_.insert(recv_buffer_.end(), it->payload.begin(),
                                it->payload.end());
            expected_seq_ += static_cast<std::uint32_t>(it->payload.size());
            ooo_.erase(it);
            progressed = true;
            break;
          }
        }
      }
    } else if (seg->seq > expected_seq_) {
      // Stash unless duplicate.
      const bool dup = std::any_of(ooo_.begin(), ooo_.end(), [&](const Segment& s) {
        return s.seq == seg->seq;
      });
      if (!dup && ooo_.size() < 64) ooo_.push_back(*seg);
    }
    // Anything (new, dup, or ooo) triggers an ACK so the sender learns.
    need_ack_ = true;
  }
  incoming.clear();

  // ---- Retransmissions.
  for (auto& f : inflight_) {
    if (now_us - f.sent_at_us >= f.rto_us) {
      Segment s;
      s.seq = f.seq;
      s.ack = expected_seq_;
      s.payload = f.payload;
      outgoing.push_back(s.serialize());
      f.sent_at_us = now_us;
      f.rto_us = std::min(f.rto_us * 2.0, params_.max_rto_us);
      ++f.attempts;
      ++retransmissions_;
      need_ack_ = false;  // this segment carries the current ack
    }
  }

  // ---- New data within the window.
  while (!send_buffer_.empty() && inflight_.size() < params_.window_segments) {
    const std::size_t n = std::min(params_.mss, send_buffer_.size());
    Segment s;
    s.seq = next_seq_;
    s.ack = expected_seq_;
    s.payload.assign(send_buffer_.begin(),
                     send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    outgoing.push_back(s.serialize());
    inflight_.push_back(InFlight{next_seq_, std::move(s.payload), now_us,
                                 params_.rto_us, 1});
    next_seq_ += static_cast<std::uint32_t>(n);
    need_ack_ = false;
  }

  // ---- Pure ACK if nothing else carried it.
  if (need_ack_) {
    Segment s;
    s.is_ack = true;
    s.ack = expected_seq_;
    outgoing.push_back(s.serialize());
    need_ack_ = false;
  }
}

TransferResult run_bulk_transfer(std::span<const std::uint8_t> data,
                                 const LinkParams& link_params,
                                 double deadline_us,
                                 const TcpLiteEndpoint::Params& tcp_params) {
  TcpLiteEndpoint sender(tcp_params);
  TcpLiteEndpoint receiver(tcp_params);
  DuplexLink link(link_params);
  sender.send(data);

  TransferResult result;
  const double step_us = 500.0;
  std::vector<std::vector<std::uint8_t>> in_a, out_a, in_b, out_b;
  for (double now = 0.0; now < deadline_us; now += step_us) {
    while (auto p = link.b_to_a.receive(now)) in_a.push_back(std::move(*p));
    while (auto p = link.a_to_b.receive(now)) in_b.push_back(std::move(*p));

    sender.poll(now, in_a, out_a);
    receiver.poll(now, in_b, out_b);

    for (auto& p : out_a) link.a_to_b.send(std::move(p), now);
    for (auto& p : out_b) link.b_to_a.send(std::move(p), now);
    out_a.clear();
    out_b.clear();

    const auto chunk = receiver.take_received();
    result.delivered.insert(result.delivered.end(), chunk.begin(), chunk.end());
    if (result.delivered.size() == data.size() && sender.all_acked()) {
      result.completion_us = now;
      result.complete = true;
      break;
    }
  }
  result.retransmissions = sender.retransmissions();
  return result;
}

}  // namespace mmsoc::net
