#include "net/tcp.hpp"

#include <algorithm>
#include <ranges>

#include "net/segment.hpp"
#include "net/wire.hpp"
#include "util/log.hpp"

namespace hyms::net {

namespace {

/// Max payload per segment.
constexpr std::size_t kMss = 1400;
/// Floor of the Jacobson/Karels retransmission timeout.
constexpr Time kMinRto = Time::msec(200);
/// Slow start's first congestion window, in segments.
constexpr std::size_t kInitialCwndSegments = 2;

// 32-bit sequence comparison with wraparound (RFC 793 style).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) { return !seq_lt(b, a); }

}  // namespace

std::unique_ptr<StreamConnection> StreamConnection::connect(Network& net,
                                                            NodeId local,
                                                            Endpoint remote,
                                                            TcpParams params) {
  auto conn = std::unique_ptr<StreamConnection>(
      new StreamConnection(net, local, remote, params, /*passive=*/false));
  conn->start_active_open();
  return conn;
}

StreamConnection::StreamConnection(Network& net, NodeId local_node,
                                   Endpoint remote, TcpParams params,
                                   bool passive)
    : net_(net), sim_(net.sim_at(local_node)),
      pool_(&net.payload_pool(local_node)), params_(params), remote_(remote),
      rto_(params.initial_rto) {
  socket_ = &net_.bind(local_node, 0,
                       [this](const Packet& pkt) { on_datagram(pkt); });
  local_ = socket_->local();
  iss_ = static_cast<std::uint32_t>(sim_.rng().next_u64() & 0x0FFFFFFF) + 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  snd_max_ = iss_;
  recover_point_ = iss_;
  send_buf_base_ = iss_ + 1;  // data starts after the SYN sequence number
  cwnd_ = static_cast<double>(kInitialCwndSegments * kMss);
  if (passive) state_ = State::kSynReceived;
}

StreamConnection::~StreamConnection() {
  if (socket_ != nullptr) net_.unbind(local_);
}

void StreamConnection::start_active_open() {
  state_ = State::kSynSent;
  emit_segment(iss_, kSyn, 0, /*is_retransmit=*/false);
  snd_nxt_ = iss_ + 1;
  arm_rto();
}

void StreamConnection::send(std::span<const std::uint8_t> data) {
  if (state_ == State::kClosed || fin_pending_) return;
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished) try_send();
}

void StreamConnection::close() {
  if (state_ == State::kClosed || fin_pending_) return;
  fin_pending_ = true;
  if (state_ == State::kEstablished) try_send();
}

const char* to_string(CloseReason reason) {
  switch (reason) {
    case CloseReason::kNone: return "none";
    case CloseReason::kGraceful: return "graceful";
    case CloseReason::kConnectTimeout: return "connect_timeout";
    case CloseReason::kRetransmitTimeout: return "retransmit_timeout";
    case CloseReason::kAborted: return "aborted";
  }
  return "?";
}

void StreamConnection::abort() { teardown(CloseReason::kAborted); }

void StreamConnection::teardown(CloseReason reason) {
  if (state_ == State::kClosed) return;
  close_reason_ = reason;
  state_ = State::kClosed;
  rto_timer_.cancel();
  if (on_close_ && !close_notified_) {
    close_notified_ = true;
    on_close_();
  }
}

void StreamConnection::enter_established() {
  state_ = State::kEstablished;
  if (on_connect_) on_connect_();
  try_send();
}

void StreamConnection::on_datagram(const Packet& pkt) {
  Segment seg;
  if (!decode_segment(pkt.payload, seg)) {
    LOG_WARN << "tcp: malformed segment dropped";
    return;
  }
  if (state_ == State::kClosed) return;

  if (state_ == State::kSynSent) {
    if ((seg.flags & kSyn) && (seg.flags & kAck) && seg.ack == iss_ + 1) {
      // Port handoff: the passive side answers from its dedicated socket.
      remote_ = pkt.src;
      irs_ = seg.seq;
      rcv_nxt_ = seg.seq + 1;
      snd_una_ = seg.ack;
      rto_timer_.cancel();
      rtt_probe_active_ = false;
      send_ack();
      enter_established();
    }
    return;
  }

  if (state_ == State::kSynReceived) {
    if (seg.flags & kAck) {
      handle_ack(seg.ack);
      if (snd_una_ == iss_ + 1) enter_established();
    }
    // Client may piggyback data with the handshake ACK; fall through.
    if ((seg.flags & kData) && state_ == State::kEstablished) {
      handle_data(seg.seq, seg.data, seg.flags & kFin);
    }
    return;
  }

  if (seg.flags & kAck) handle_ack(seg.ack);
  if ((seg.flags & kData) || (seg.flags & kFin)) {
    handle_data(seg.seq, seg.data, seg.flags & kFin);
  }
}

void StreamConnection::handle_ack(std::uint32_t ack) {
  LOG_TRACE << "tcp ack=" << ack << " snd_una=" << snd_una_
            << " snd_nxt=" << snd_nxt_;
  if (seq_lt(snd_max_, ack)) return;  // acks data never sent; ignore
  // A cumulative ACK may cover data sent before a go-back-N rewind.
  if (seq_lt(snd_nxt_, ack)) snd_nxt_ = ack;
  if (seq_lt(snd_una_, ack)) {
    // New data acknowledged.
    const std::uint32_t newly = ack - snd_una_;
    snd_una_ = ack;
    dup_acks_ = 0;
    consecutive_rtos_ = 0;  // forward progress: reset the retry budget

    // Release acked bytes from the send buffer (SYN/FIN occupy sequence
    // numbers outside the buffer).
    if (seq_lt(send_buf_base_, ack)) {
      const auto drop = std::min<std::size_t>(
          static_cast<std::size_t>(ack - send_buf_base_), send_buf_.size());
      send_buf_.erase(send_buf_.begin(),
                      send_buf_.begin() + static_cast<std::ptrdiff_t>(drop));
      send_buf_base_ += static_cast<std::uint32_t>(drop);
    }

    if (rtt_probe_active_ && seq_le(rtt_probe_seq_, ack)) {
      update_rtt(sim_.now() - rtt_probe_sent_at_);
      rtt_probe_active_ = false;
    }

    // Congestion window growth: slow start then additive increase.
    const auto mss = static_cast<double>(kMss);
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(std::min<std::uint32_t>(
          newly, static_cast<std::uint32_t>(kMss)));
    } else {
      cwnd_ += mss * mss / cwnd_;
    }

    if (fin_sent_ && snd_una_ == snd_nxt_) {
      // Our FIN is acknowledged.
      if (fin_received_) {
        teardown();
        return;
      }
      state_ = State::kFinSent;
      rto_timer_.cancel();
    } else {
      arm_rto();
    }
    try_send();
  } else if (ack == snd_una_ && unacked_bytes() > 0) {
    ++dup_acks_;
    if (dup_acks_ == 3) {
      // Fast retransmit.
      ++stats_.fast_retransmits;
      const double flight = static_cast<double>(unacked_bytes());
      ssthresh_ = std::max(flight / 2.0, 2.0 * static_cast<double>(kMss));
      cwnd_ = ssthresh_;
      const std::size_t offset =
          static_cast<std::size_t>(snd_una_ - send_buf_base_);
      const std::size_t len =
          std::min(kMss, send_buf_.size() - std::min(offset, send_buf_.size()));
      if (len > 0 && offset < send_buf_.size()) {
        emit_segment(snd_una_, kData | kAck, len, /*is_retransmit=*/true);
      }
    }
  }
}

void StreamConnection::handle_data(std::uint32_t seq,
                                   std::span<const std::uint8_t> data,
                                   bool fin) {
  LOG_TRACE << "tcp rcv seq=" << seq << " len=" << data.size()
            << " rcv_nxt=" << rcv_nxt_ << " ooo=" << ooo_.size()
            << (fin ? " FIN" : "");
  if (fin) {
    fin_received_ = true;
    fin_seq_ = seq + static_cast<std::uint32_t>(data.size());
  }
  if (!data.empty()) {
    if (seq == rcv_nxt_) {
      rcv_nxt_ += static_cast<std::uint32_t>(data.size());
      stats_.bytes_received += static_cast<std::int64_t>(data.size());
      if (on_data_) on_data_(data);
      // Drain any contiguous out-of-order segments.
      auto it = ooo_.find(rcv_nxt_);
      while (it != ooo_.end()) {
        std::vector<std::uint8_t> buf = std::move(it->second);
        ooo_.erase(it);
        rcv_nxt_ += static_cast<std::uint32_t>(buf.size());
        stats_.bytes_received += static_cast<std::int64_t>(buf.size());
        if (on_data_) on_data_(std::span<const std::uint8_t>{buf});
        it = ooo_.find(rcv_nxt_);
      }
    } else if (seq_lt(rcv_nxt_, seq)) {
      ooo_.emplace(seq, std::vector<std::uint8_t>(data.begin(), data.end()));
    }
    // else: duplicate of already-delivered data; just re-ACK.
  }
  if (fin_received_ && rcv_nxt_ == fin_seq_) {
    rcv_nxt_ = fin_seq_ + 1;  // consume the FIN sequence number
    send_ack();
    if (fin_sent_ && snd_una_ == snd_nxt_) {
      teardown();
    } else if (!fin_sent_) {
      // Passive close: notify once, flush our side, then FIN.
      if (on_close_ && !close_notified_) {
        close_notified_ = true;
        on_close_();
      }
      fin_pending_ = true;
      try_send();
    }
    return;
  }
  send_ack();
}

void StreamConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kFinSent) return;
  const std::size_t window = static_cast<std::size_t>(cwnd_);
  while (true) {
    const std::size_t in_flight = unacked_bytes();
    if (in_flight >= window) break;
    const std::uint32_t buf_end =
        send_buf_base_ + static_cast<std::uint32_t>(send_buf_.size());
    if (!seq_lt(snd_nxt_, buf_end)) break;  // nothing unsent
    const std::size_t offset =
        static_cast<std::size_t>(snd_nxt_ - send_buf_base_);
    const std::size_t available = send_buf_.size() - offset;
    const std::size_t len =
        std::min({kMss, available, window - in_flight});
    if (len == 0) break;
    emit_segment(snd_nxt_, kData | kAck, len,
                 /*is_retransmit=*/seq_lt(snd_nxt_, recover_point_));
    snd_nxt_ += static_cast<std::uint32_t>(len);
    arm_rto();
  }

  // All data sent: emit FIN if requested.
  const std::uint32_t buf_end =
      send_buf_base_ + static_cast<std::uint32_t>(send_buf_.size());
  if (fin_pending_ && !fin_sent_ && snd_nxt_ == buf_end) {
    emit_segment(snd_nxt_, kFin | kAck, 0, /*is_retransmit=*/false);
    fin_sent_ = true;
    snd_nxt_ += 1;
    arm_rto();
  }
}

void StreamConnection::emit_segment(std::uint32_t seq, std::uint8_t flags,
                                    std::size_t len, bool is_retransmit) {
  ++stats_.segments_sent;
  const std::uint32_t seq_end =
      seq + static_cast<std::uint32_t>(len) +
      (((flags & kSyn) || (flags & kFin)) ? 1 : 0);
  if (seq_lt(snd_max_, seq_end)) snd_max_ = seq_end;
  if (is_retransmit) {
    ++stats_.retransmissions;
    if (rtt_probe_active_ && seq_le(seq, rtt_probe_seq_)) {
      rtt_probe_active_ = false;  // Karn: invalidate probe on retransmit
    }
  } else if (!rtt_probe_active_ && ((flags & kData) || (flags & kSyn))) {
    rtt_probe_active_ = true;
    rtt_probe_seq_ =
        seq + static_cast<std::uint32_t>(len) + ((flags & kSyn) ? 1 : 0);
    rtt_probe_sent_at_ = sim_.now();
  }
  if (flags & kData) {
    stats_.bytes_sent += static_cast<std::int64_t>(len);
  }
  // The payload is copied once, straight from the send buffer into the wire.
  const auto first =
      send_buf_.begin() +
      static_cast<std::ptrdiff_t>(len == 0 ? 0 : seq - send_buf_base_);
  const std::ranges::subrange data(first,
                                   first + static_cast<std::ptrdiff_t>(len));
  socket_->send(remote_, encode_segment(*pool_, flags, seq, rcv_nxt_, data));
}

void StreamConnection::send_ack() {
  socket_->send(remote_, encode_segment(*pool_, kAck, snd_nxt_, rcv_nxt_,
                                        std::span<const std::uint8_t>{}));
}

void StreamConnection::arm_rto() {
  rto_timer_.arm_after(rto_, [this] { on_rto(); });
}

void StreamConnection::on_rto() {
  if (state_ == State::kClosed) return;
  // An idle connection's timer (nothing outstanding) fires spuriously; only
  // a SYN retry or a real retransmission timeout counts.
  if (state_ != State::kSynSent && unacked_bytes() == 0) return;
  ++stats_.timeouts;

  if (state_ == State::kSynSent) {
    if (++syn_retries_ > params_.max_syn_retries) {
      teardown(CloseReason::kConnectTimeout);
      return;
    }
    emit_segment(iss_, kSyn, 0, /*is_retransmit=*/true);
    rto_ = std::min(rto_ * 2, params_.max_rto);
    arm_rto();
    return;
  }

  if (state_ == State::kSynReceived) {
    if (++syn_retries_ > params_.max_syn_retries) {
      teardown(CloseReason::kConnectTimeout);
      return;
    }
    emit_segment(iss_, kSyn | kAck, 0, /*is_retransmit=*/true);
    rto_ = std::min(rto_ * 2, params_.max_rto);
    arm_rto();
    return;
  }

  // Retry budget: a path that stays dead across max_retransmits consecutive
  // backed-off timeouts gets a typed failure instead of an eternal hang.
  if (params_.max_retransmits > 0 &&
      ++consecutive_rtos_ > params_.max_retransmits) {
    teardown(CloseReason::kRetransmitTimeout);
    return;
  }

  // Multiplicative decrease + go-back-N (Tahoe): rewind snd_nxt so try_send
  // resends the whole outstanding window — drop-tail bursts lose many
  // segments of one window, and retransmitting only the first hole would
  // leave recovery limping along at one hole per (backed-off) timeout.
  const double flight = static_cast<double>(unacked_bytes());
  ssthresh_ = std::max(flight / 2.0, 2.0 * static_cast<double>(kMss));
  cwnd_ = static_cast<double>(kMss);
  dup_acks_ = 0;
  rtt_probe_active_ = false;  // Karn: nothing timed across a timeout
  recover_point_ = snd_nxt_;  // everything below this is a retransmission
  snd_nxt_ = snd_una_;
  if (fin_sent_) fin_sent_ = false;  // re-emit the FIN after the data
  if (state_ == State::kFinSent) state_ = State::kEstablished;

  rto_ = std::min(rto_ * 2, params_.max_rto);
  stats_.retransmissions += 1;  // at least the head segment goes again
  try_send();
  arm_rto();
}

void StreamConnection::update_rtt(Time sample) {
  const double s = sample.to_ms();
  if (srtt_ms_ == 0.0) {
    srtt_ms_ = s;
    rttvar_ms_ = s / 2.0;
  } else {
    rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - s);
    srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * s;
  }
  stats_.srtt_ms = srtt_ms_;
  const double rto_ms = srtt_ms_ + std::max(1.0, 4.0 * rttvar_ms_);
  rto_ = std::clamp(Time::seconds(rto_ms / 1e3), kMinRto,
                    params_.max_rto);
}

StreamListener::StreamListener(Network& net, NodeId node, Port port,
                               AcceptFn on_accept, TcpParams params)
    : net_(net), params_(params), on_accept_(std::move(on_accept)) {
  DatagramSocket& sock =
      net_.bind(node, port, [this, node](const Packet& pkt) {
        Segment seg;
        if (!decode_segment(pkt.payload, seg)) return;
        if (!(seg.flags & StreamConnection::kSyn) ||
            (seg.flags & StreamConnection::kAck)) {
          return;  // listener only consumes fresh SYNs
        }
        auto conn = std::unique_ptr<StreamConnection>(new StreamConnection(
            net_, node, pkt.src, params_, /*passive=*/true));
        conn->irs_ = seg.seq;
        conn->rcv_nxt_ = seg.seq + 1;
        conn->emit_segment(conn->iss_,
                           StreamConnection::kSyn | StreamConnection::kAck, 0,
                           /*is_retransmit=*/false);
        conn->snd_nxt_ = conn->iss_ + 1;
        conn->arm_rto();
        if (on_accept_) on_accept_(std::move(conn));
      });
  local_ = sock.local();
}

StreamListener::~StreamListener() { net_.unbind(local_); }

void MessageChannel::send_message(const std::vector<std::uint8_t>& body) {
  Payload framed;
  framed.reserve(4 + body.size());
  WireWriter w(framed);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body.data(), body.size());
  conn_.send(framed);
}

void MessageChannel::on_bytes(std::span<const std::uint8_t> chunk) {
  rx_.insert(rx_.end(), chunk.begin(), chunk.end());
  std::size_t pos = 0;
  while (rx_.size() - pos >= 4) {
    WireReader r(rx_.data() + pos, rx_.size() - pos);
    const std::uint32_t len = r.u32();
    if (rx_.size() - pos - 4 < len) break;
    std::vector<std::uint8_t> body(rx_.begin() + static_cast<std::ptrdiff_t>(pos + 4),
                                   rx_.begin() + static_cast<std::ptrdiff_t>(pos + 4 + len));
    pos += 4 + len;
    if (on_message_) on_message_(std::move(body));
  }
  if (pos > 0) rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(pos));
}

}  // namespace hyms::net
