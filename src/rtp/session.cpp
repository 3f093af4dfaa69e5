#include "rtp/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace hyms::rtp {

// --- RtpSender ---------------------------------------------------------------

RtpSender::RtpSender(net::Network& net, net::NodeId node,
                     net::Endpoint remote_rtp, net::Endpoint remote_rtcp,
                     Params params)
    : net_(net), sim_(net.sim_at(node)), pool_(&net.payload_pool(node)),
      params_(params), remote_rtp_(remote_rtp), remote_rtcp_(remote_rtcp) {
  if (auto* hub = sim_.telemetry()) {
    auto& tr = hub->tracer();
    trace_track_ = tr.track(
        params_.label.empty()
            ? "rtp/sender/" + std::to_string(params_.ssrc)
            : params_.label);
    n_report_ = tr.name("rtcp/fraction_lost");
    n_rtt_ = tr.name("rtcp/rtt_ms");
  }
  rtp_socket_ = &net_.bind(node, 0, [](const net::Packet&) {});
  rtcp_socket_ =
      &net_.bind(node, 0, [this](const net::Packet& pkt) { on_rtcp(pkt); });
  next_seq_ = static_cast<std::uint16_t>(sim_.rng().next_u64());
  arm_sender_report();
}

RtpSender::~RtpSender() {
  net_.unbind(rtp_socket_->local());
  net_.unbind(rtcp_socket_->local());
}

void RtpSender::send_frame(const std::vector<std::uint8_t>& data,
                           Time media_time) {
  append_frame(data, media_time);
  flush();
}

void RtpSender::append_frame(const std::vector<std::uint8_t>& data,
                             Time media_time) {
  append_frame(data.data(), data.size(), media_time);
}

void RtpSender::append_frame(const std::uint8_t* data, std::size_t size,
                             Time media_time) {
  const std::size_t frag_count = std::max<std::size_t>(
      1, (size + params_.max_payload - 1) / params_.max_payload);
  if (frag_count > kMaxFragments) {
    throw std::invalid_argument(
        "rtp sender: a " + std::to_string(size) + "-byte frame needs " +
        std::to_string(frag_count) + " fragments, more than " +
        std::to_string(kMaxFragments));
  }
  const std::uint32_t rtp_ts = params_.clock.to_rtp(media_time);
  last_rtp_ts_ = rtp_ts;
  RtpPacket pkt;
  pkt.header.payload_type = params_.payload_type;
  pkt.header.timestamp = rtp_ts;
  pkt.header.ssrc = params_.ssrc;
  pkt.frag_count = static_cast<std::uint16_t>(frag_count);
  for (std::size_t i = 0; i < frag_count; ++i) {
    pkt.header.marker = (i + 1 == frag_count);
    pkt.header.sequence = next_seq_++;
    pkt.frag_index = static_cast<std::uint16_t>(i);
    const std::size_t begin = i * params_.max_payload;
    const std::size_t len = std::min(size - begin, params_.max_payload);
    pkt.payload = std::span<const std::uint8_t>(data + begin, len);
    stats_.octets_sent += static_cast<std::int64_t>(len);
    ++stats_.packets_sent;
    auto wire = pool_->acquire(kRtpHeaderSize + 4 + len);
    serialize_rtp_into(pkt, wire);
    train_.push_back(std::move(wire));
  }
  ++stats_.frames_sent;
}

void RtpSender::flush() {
  if (train_.empty()) return;
  net_.send_train(rtp_socket_->local(), remote_rtp_, train_);
}

void RtpSender::emit_sender_report() {
  if (remote_rtcp_.node == net::kNoNode) return;  // peer not yet known
  SenderReport sr;
  sr.ssrc = params_.ssrc;
  sr.ntp_timestamp = static_cast<std::uint64_t>(sim_.now().us());
  sr.rtp_timestamp = last_rtp_ts_;
  sr.packet_count = static_cast<std::uint32_t>(stats_.packets_sent);
  sr.octet_count = static_cast<std::uint32_t>(stats_.octets_sent);
  RtcpCompound compound;
  compound.sender_reports.push_back(sr);
  auto wire = pool_->acquire();
  serialize_rtcp_into(compound, wire);
  rtcp_socket_->send(remote_rtcp_, std::move(wire));
}

void RtpSender::arm_sender_report() {
  sr_timer_.arm_after(params_.sr_interval, [this] {
    emit_sender_report();
    arm_sender_report();
  });
}

void RtpSender::send_bye(const std::string& reason) {
  if (remote_rtcp_.node == net::kNoNode) return;
  RtcpCompound compound;
  compound.byes.push_back(Bye{params_.ssrc, reason});
  auto wire = pool_->acquire();
  serialize_rtcp_into(compound, wire);
  rtcp_socket_->send(remote_rtcp_, std::move(wire));
}

void RtpSender::on_rtcp(const net::Packet& pkt) {
  // Learn (or re-learn) the receiver's RTCP endpoint from its reports, so
  // Sender Reports flow back without explicit negotiation.
  remote_rtcp_ = pkt.src;
  const auto compound = parse_rtcp(pkt.payload);
  if (!compound) {
    LOG_WARN << "rtp sender: malformed RTCP";
    return;
  }
  for (const auto& rr : compound->receiver_reports) {
    for (const auto& block : rr.reports) {
      if (block.ssrc != params_.ssrc) continue;
      ++stats_.reports_received;
      ReceiverFeedback fb;
      fb.block = block;
      fb.at = sim_.now();
      if (block.last_sr != 0) {
        // RTT = now - LSR - DLSR, all in 1/65536 s "middle 32 bits" units.
        const auto now_ntp = static_cast<std::uint64_t>(sim_.now().us());
        const auto now_middle = static_cast<std::uint32_t>(
            ((now_ntp / 1'000'000) << 16) |
            (((now_ntp % 1'000'000) << 16) / 1'000'000));
        const std::uint32_t rtt_units =
            now_middle - block.last_sr - block.delay_since_last_sr;
        fb.rtt_ms = static_cast<double>(rtt_units) * 1000.0 / 65536.0;
        stats_.last_rtt_ms = *fb.rtt_ms;
      }
      // Attach APP metrics travelling in the same compound packet.
      for (const auto& app : compound->app_qos) {
        fb.app_metrics.insert(fb.app_metrics.end(), app.metrics.begin(),
                              app.metrics.end());
      }
      if (auto* hub = sim_.telemetry()) {
        auto& tr = hub->tracer();
        tr.counter(trace_track_, n_report_, fb.at, fb.fraction_lost());
        if (fb.rtt_ms) tr.counter(trace_track_, n_rtt_, fb.at, *fb.rtt_ms);
      }
      if (on_feedback_) on_feedback_(fb);
    }
  }
}

void RtpSender::flush_telemetry() {
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  auto& m = hub->metrics();
  const std::string prefix =
      (params_.label.empty() ? "rtp/sender/" + std::to_string(params_.ssrc)
                             : params_.label) +
      "/";
  m.set(prefix + "frames_sent", static_cast<double>(stats_.frames_sent));
  m.set(prefix + "packets_sent", static_cast<double>(stats_.packets_sent));
  m.set(prefix + "octets_sent", static_cast<double>(stats_.octets_sent));
  m.set(prefix + "reports_received",
        static_cast<double>(stats_.reports_received));
  m.set(prefix + "last_rtt_ms", stats_.last_rtt_ms);
}

// --- RtpReceiver -------------------------------------------------------------

RtpReceiver::RtpReceiver(net::Network& net, net::NodeId node,
                         net::Port rtp_port, net::Endpoint sender_rtcp,
                         Params params)
    : net_(net), sim_(net.sim_at(node)), pool_(&net.payload_pool(node)),
      params_(params), sender_rtcp_(sender_rtcp) {
  if (auto* hub = sim_.telemetry()) {
    auto& tr = hub->tracer();
    trace_track_ = tr.track(
        params_.label.empty()
            ? "rtp/receiver/" + std::to_string(params_.local_ssrc)
            : params_.label);
    n_jitter_ = tr.name("rtcp/jitter_ms");
    n_lost_ = tr.name("rtcp/lost_cumulative");
    n_incomplete_ = tr.name("frame_incomplete");
  }
  rtp_socket_ = &net_.bind(node, rtp_port, [this](net::Packet&& pkt) {
    on_rtp(std::move(pkt));
  });
  rtcp_socket_ =
      &net_.bind(node, 0, [this](const net::Packet& pkt) { on_rtcp(pkt); });
  arm_receiver_report();
}

RtpReceiver::~RtpReceiver() {
  net_.unbind(rtp_socket_->local());
  net_.unbind(rtcp_socket_->local());
}

void RtpReceiver::on_rtp(net::Packet&& pkt) {
  const auto parsed = parse_rtp(pkt.payload);
  if (!parsed) {
    LOG_WARN << "rtp receiver: malformed RTP packet";
    return;
  }
  const RtpPacket& rtp = *parsed;
  const Time now = sim_.now();
  const Time transit = now - pkt.injected_at;

  ++stats_.packets_received;
  ++received_count_;
  remote_ssrc_ = rtp.header.ssrc;
  stats_.transit_ms.add(transit.to_ms());
  update_sequence(rtp.header.sequence);
  update_jitter(rtp.header.timestamp, now);

  // Reassemble the frame this fragment belongs to: the slot takes the wire
  // buffer itself. A duplicate or out-of-range fragment is not taken, and
  // the network recycles it after this callback.
  Assembly& asmb = assembly_for(rtp.header.timestamp, rtp.frag_count, now);
  if (rtp.frag_index < asmb.frag_count &&
      asmb.parts[rtp.frag_index].wire.empty()) {
    Part& part = asmb.parts[rtp.frag_index];
    part.offset = static_cast<std::size_t>(rtp.payload.data() -
                                           pkt.payload.data());
    part.length = rtp.payload.size();
    part.wire = std::move(pkt.payload);
    ++asmb.received;
    asmb.last_transit = transit;
  }
  if (asmb.received == asmb.frag_count) {
    views_.clear();
    for (std::uint16_t i = 0; i < asmb.frag_count; ++i) {
      const Part& part = asmb.parts[i];
      views_.emplace_back(part.wire.data() + part.offset, part.length);
    }
    ReceivedFrame frame;
    frame.fragments = views_;
    frame.rtp_timestamp = rtp.header.timestamp;
    frame.media_time = params_.clock.to_time(rtp.header.timestamp);
    frame.arrival = now;
    frame.network_transit = asmb.last_transit;
    frame.ssrc = rtp.header.ssrc;
    asmb.live = false;
    --live_assemblies_;
    ++stats_.frames_delivered;
    // The views stay valid through the callback; the buffers go back to
    // the pool after it.
    if (on_frame_) on_frame_(frame);
    release_parts(asmb);
  }
  evict_stale(now);
}

RtpReceiver::Assembly& RtpReceiver::assembly_for(std::uint32_t rtp_ts,
                                                 std::uint16_t frag_count,
                                                 Time now) {
  Assembly* dead = nullptr;
  for (auto& asmb : assemblies_) {
    if (asmb.live) {
      if (asmb.rtp_timestamp == rtp_ts) return asmb;
    } else if (dead == nullptr) {
      dead = &asmb;
    }
  }
  if (dead == nullptr) {
    assemblies_.emplace_back();
    dead = &assemblies_.back();
  }
  // Recycle the slot: a dead slot holds no buffers, so every part is empty.
  Assembly& asmb = *dead;
  asmb.rtp_timestamp = rtp_ts;
  asmb.live = true;
  asmb.frag_count = frag_count;
  if (asmb.parts.size() < frag_count) asmb.parts.resize(frag_count);
  asmb.received = 0;
  asmb.first_arrival = now;
  asmb.last_transit = Time::zero();
  ++live_assemblies_;
  return asmb;
}

void RtpReceiver::release_parts(Assembly& asmb) {
  for (std::uint16_t i = 0; i < asmb.frag_count; ++i) {
    // exchange leaves the part empty even when the pool is full and lets
    // the buffer go.
    Part& part = asmb.parts[i];
    if (!part.wire.empty()) pool_->release(std::exchange(part.wire, {}));
  }
}

void RtpReceiver::update_sequence(std::uint16_t seq) {
  if (!seq_initialized_) {
    seq_initialized_ = true;
    base_seq_ = seq;
    max_seq_ = seq;
    return;
  }
  const std::uint16_t delta = static_cast<std::uint16_t>(seq - max_seq_);
  if (delta < 0x8000) {
    // In-order or small forward jump; detect wraparound.
    if (seq < max_seq_) cycles_ += 1u << 16;
    max_seq_ = seq;
  }
  // else: reordered/duplicate packet arriving late — stats unchanged.
}

void RtpReceiver::update_jitter(std::uint32_t rtp_ts, Time arrival) {
  // RFC 1889 A.8: J += (|D(i-1,i)| - J) / 16, in timestamp units.
  const double arrival_units =
      arrival.to_seconds() * static_cast<double>(params_.clock.clock_rate);
  const double transit = arrival_units - static_cast<double>(rtp_ts);
  if (transit_initialized_) {
    const double d = std::abs(transit - last_transit_units_);
    jitter_units_ += (d - jitter_units_) / 16.0;
  }
  last_transit_units_ = transit;
  transit_initialized_ = true;
  stats_.jitter_ms = params_.clock.rtp_units_to_ms(jitter_units_);
}

void RtpReceiver::evict_stale(Time now) {
  if (live_assemblies_ == 0) return;
  for (auto& asmb : assemblies_) {
    if (asmb.live && now - asmb.first_arrival > params_.reassembly_timeout) {
      ++stats_.frames_incomplete;
      asmb.live = false;
      --live_assemblies_;
      release_parts(asmb);
      if (auto* hub = sim_.telemetry()) {
        hub->tracer().instant(trace_track_, n_incomplete_, now);
      }
    }
  }
}

void RtpReceiver::on_rtcp(const net::Packet& pkt) {
  const auto compound = parse_rtcp(pkt.payload);
  if (!compound) return;
  for (const auto& sr : compound->sender_reports) {
    // Keep middle 32 bits of the "NTP" timestamp for LSR/DLSR bookkeeping.
    const std::uint64_t ntp = sr.ntp_timestamp;
    last_sr_middle_ = static_cast<std::uint32_t>(
        ((ntp / 1'000'000) << 16) | (((ntp % 1'000'000) << 16) / 1'000'000));
    last_sr_arrival_ = sim_.now();
  }
}

void RtpReceiver::arm_receiver_report() {
  rr_timer_.arm_after(params_.rr_interval, [this] {
    emit_receiver_report();
    arm_receiver_report();
  });
}

void RtpReceiver::emit_receiver_report() {
  if (!seq_initialized_) return;                       // nothing received yet
  if (sender_rtcp_.node == net::kNoNode) return;       // peer not yet known

  const std::uint32_t extended_max = cycles_ + max_seq_;
  const std::uint32_t expected = extended_max - base_seq_ + 1;
  const std::int64_t lost = static_cast<std::int64_t>(expected) -
                            static_cast<std::int64_t>(received_count_);
  const std::uint32_t expected_interval = expected - expected_prior_;
  const std::uint32_t received_interval = received_count_ - received_prior_;
  expected_prior_ = expected;
  received_prior_ = received_count_;
  const std::int64_t lost_interval =
      static_cast<std::int64_t>(expected_interval) -
      static_cast<std::int64_t>(received_interval);
  std::uint8_t fraction = 0;
  if (expected_interval > 0 && lost_interval > 0) {
    fraction = static_cast<std::uint8_t>(
        std::min<std::int64_t>(255, (lost_interval << 8) /
                                        static_cast<std::int64_t>(
                                            expected_interval)));
  }
  stats_.packets_lost_cumulative = lost;

  ReportBlock block;
  block.ssrc = remote_ssrc_;
  block.fraction_lost = fraction;
  block.cumulative_lost = static_cast<std::int32_t>(lost);
  block.extended_highest_seq = extended_max;
  block.interarrival_jitter = static_cast<std::uint32_t>(jitter_units_);
  block.last_sr = last_sr_middle_;
  if (last_sr_middle_ != 0) {
    const double dlsr_s = (sim_.now() - last_sr_arrival_).to_seconds();
    block.delay_since_last_sr = static_cast<std::uint32_t>(dlsr_s * 65536.0);
  }

  ReceiverReport rr;
  rr.ssrc = params_.local_ssrc;
  rr.reports.push_back(block);

  RtcpCompound compound;
  compound.receiver_reports.push_back(std::move(rr));
  if (extra_metrics_) {
    AppQos app;
    app.ssrc = params_.local_ssrc;
    app.metrics = extra_metrics_();
    if (!app.metrics.empty()) compound.app_qos.push_back(std::move(app));
  }
  ++stats_.reports_sent;
  if (auto* hub = sim_.telemetry()) {
    auto& tr = hub->tracer();
    tr.counter(trace_track_, n_jitter_, sim_.now(), stats_.jitter_ms);
    tr.counter(trace_track_, n_lost_, sim_.now(),
               static_cast<double>(stats_.packets_lost_cumulative));
  }
  auto wire = pool_->acquire();
  serialize_rtcp_into(compound, wire);
  rtcp_socket_->send(sender_rtcp_, std::move(wire));
}

void RtpReceiver::flush_telemetry() {
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  auto& m = hub->metrics();
  const std::string prefix =
      (params_.label.empty()
           ? "rtp/receiver/" + std::to_string(params_.local_ssrc)
           : params_.label) +
      "/";
  m.set(prefix + "packets_received",
        static_cast<double>(stats_.packets_received));
  m.set(prefix + "frames_delivered",
        static_cast<double>(stats_.frames_delivered));
  m.set(prefix + "frames_incomplete",
        static_cast<double>(stats_.frames_incomplete));
  m.set(prefix + "reports_sent", static_cast<double>(stats_.reports_sent));
  m.set(prefix + "packets_lost",
        static_cast<double>(stats_.packets_lost_cumulative));
  m.set(prefix + "jitter_ms", stats_.jitter_ms);
}

}  // namespace hyms::rtp
