#include "server/stream_session.hpp"

#include <algorithm>

#include "net/wire.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace hyms::server {

namespace {
std::uint32_t make_ssrc(const core::StreamSpec& spec) {
  return media::hash_source_name(spec.id + "@" + spec.source) | 1u;
}

std::uint8_t payload_type_for(media::MediaType type) {
  switch (type) {
    case media::MediaType::kAudio: return 97;
    case media::MediaType::kVideo: return 96;
    default: return 98;
  }
}
}  // namespace

MediaStreamSession::MediaStreamSession(
    net::Network& net, net::NodeId server_node,
    std::shared_ptr<media::MediaSource> source, core::StreamSpec spec,
    Params params)
    : net_(net), sim_(net.sim_at(server_node)), node_(server_node),
      source_(std::move(source)), spec_(std::move(spec)), params_(params),
      converter_(*source_, params.floor_level) {
  converter_.set_level(params.initial_level);
  // The flow scenario covers exactly the scheduled playout window: a
  // DURATION shorter than the source truncates it; a longer one loops the
  // content (the language's "more complicated presentational features").
  frame_limit_ = source_->frame_count();
  if (spec_.duration && source_->frame_interval() > Time::zero()) {
    frame_limit_ = spec_.duration->us() / source_->frame_interval().us();
  }
  // Session recovery: resume pacing at the frame covering start_offset.
  // Object flows (zero interval) always re-serve whole.
  if (params_.start_offset > spec_.start &&
      source_->frame_interval() > Time::zero()) {
    next_frame_ = std::min<std::int64_t>(
        frame_limit_, (params_.start_offset - spec_.start).us() /
                          source_->frame_interval().us());
  }
  if (auto* hub = sim_.telemetry()) {
    auto& tr = hub->tracer();
    trace_track_ = tr.track("server/stream/" + spec_.id);
    n_send_window_ = tr.name("send_window");
    n_rate_ = tr.name("rate_bps");
    n_object_ = tr.name("object_served");
  }
}

std::unique_ptr<MediaStreamSession> MediaStreamSession::make_rtp(
    net::Network& net, net::NodeId server_node,
    std::shared_ptr<media::MediaSource> source, core::StreamSpec spec,
    net::Endpoint client_rtp, Params params) {
  auto session = std::unique_ptr<MediaStreamSession>(new MediaStreamSession(
      net, server_node, std::move(source), std::move(spec), params));

  session->clock_rate_ =
      session->source_->type() == media::MediaType::kAudio ? 44'100 : 90'000;
  rtp::RtpSender::Params sp;
  sp.ssrc = make_ssrc(session->spec_);
  sp.payload_type = payload_type_for(session->source_->type());
  sp.clock.clock_rate = session->clock_rate_;
  sp.max_payload = params.max_payload;
  sp.sr_interval = params.sr_interval;
  sp.label = "server/stream/" + session->spec_.id + "/rtp";
  // The receiver learns our RTCP endpoint from the setup reply; it reports
  // straight to the sender's RTCP socket.
  session->sender_ = std::make_unique<rtp::RtpSender>(
      net, server_node, client_rtp, net::Endpoint{}, sp);
  session->sender_->set_on_feedback(
      [raw = session.get()](const rtp::ReceiverFeedback& fb) {
        if (raw->on_feedback_) raw->on_feedback_(fb);
      });
  return session;
}

std::unique_ptr<MediaStreamSession> MediaStreamSession::make_object(
    net::Network& net, net::NodeId server_node,
    std::shared_ptr<media::MediaSource> source, core::StreamSpec spec,
    Params params) {
  auto session = std::unique_ptr<MediaStreamSession>(new MediaStreamSession(
      net, server_node, std::move(source), std::move(spec), params));
  MediaStreamSession* raw = session.get();
  session->listener_ = std::make_unique<net::StreamListener>(
      net, server_node, 0,
      [raw](std::unique_ptr<net::StreamConnection> conn) {
        // Serve the object: 8-byte length prefix + payload, then close. The
        // body comes from the shared cache — every client pulling the same
        // object reuses one synthesized copy.
        const media::SharedFrame frame = raw->source_->shared_frame(
            0, raw->converter_.current_level(), raw->params_.frame_cache);
        net::Payload header;
        net::WireWriter w(header);
        w.u64(frame.payload->size());
        conn->send(header);
        conn->send(*frame.payload);
        conn->close();
        ++raw->stats_.objects_served;
        ++raw->level_slots_[std::clamp(raw->converter_.current_level(), 0,
                                       telemetry::kQoeLevels - 1)];
        if (auto* hub = raw->sim_.telemetry()) {
          hub->tracer().instant(raw->trace_track_, raw->n_object_,
                                raw->sim_.now(),
                                static_cast<double>(frame.payload->size()));
        }
        raw->complete_ = true;
        raw->object_conns_.push_back(std::move(conn));
      });
  return session;
}

MediaStreamSession::~MediaStreamSession() { flush_qoe(); }

void MediaStreamSession::start_flow() {
  if (stopped_ || !is_rtp()) return;  // object flows wait for the client pull
  if (params_.trace.valid()) {
    if (auto* hub = sim_.telemetry(); hub != nullptr && hub->tracing()) {
      // Step the StreamSetup request's flow through this stream's track; the
      // arrow terminates at the client's first playout slot.
      auto& tr = hub->tracer();
      tr.flow_step(trace_track_, tr.name("start_flow"), sim_.now(),
                   params_.trace.flow_id());
    }
  }
  if (next_frame_ >= frame_limit_) {  // resumed past the end of this stream
    complete_ = true;
    return;
  }
  // A resumed session shifts every stream's start: streams the resume
  // offset has passed begin immediately (at their resumed frame), later
  // ones keep their remaining lead-in.
  Time delay = spec_.start;
  if (params_.start_offset > Time::zero()) {
    delay = spec_.start > params_.start_offset
                ? spec_.start - params_.start_offset
                : Time::zero();
  }
  schedule_next(delay);
}

void MediaStreamSession::schedule_next(Time delay) {
  pace_timer_.arm_after(delay, [this] { pace_frame(); });
}

void MediaStreamSession::pace_frame() {
  if (paused_ || stopped_) return;
  if (next_frame_ >= frame_limit_) {
    complete_ = true;
    end_send_window();
    return;
  }
  if (!began_) {
    began_ = true;
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().begin(trace_track_, n_send_window_, sim_.now());
      window_open_ = true;
      note_rate();
    }
  }
  // Coalesce every frame due at this instant into one packet train: with a
  // zero frame interval the whole backlog ships as a single burst, otherwise
  // the train is just this frame's fragments. Per-frame stats and RTP
  // timestamps are those of individual send_frame() calls.
  const Time interval = source_->frame_interval();
  do {
    // Loop through the source when the scenario runs past its end; the RTP
    // timestamp keeps advancing with the scenario position, not the source's.
    // A frame-cache hit makes this a pure lookup: zero synthesis, and the
    // packetizer reads the shared body in place (zero payload copies).
    const media::SharedFrame frame =
        source_->shared_frame(next_frame_ % source_->frame_count(),
                              converter_.current_level(),
                              params_.frame_cache);
    sender_->append_frame(frame.payload->data(), frame.payload->size(),
                          interval * next_frame_);
    LOG_TRACE << "pace " << spec_.id << " frame " << next_frame_ << " level "
              << converter_.current_level();
    ++stats_.frames_sent;
    ++level_slots_[std::clamp(converter_.current_level(), 0,
                              telemetry::kQoeLevels - 1)];
    ++next_frame_;
  } while (interval == Time::zero() && next_frame_ < frame_limit_);
  sender_->flush();
  if (next_frame_ >= frame_limit_) {
    complete_ = true;
    end_send_window();
    return;
  }
  schedule_next(interval);
}

Time MediaStreamSession::media_position() const {
  return spec_.start + source_->frame_interval() * next_frame_;
}

bool MediaStreamSession::degrade() {
  const bool changed = converter_.degrade();
  if (changed) {
    ++quality_changes_;
    note_rate();
    // No per-trace QoE note: this runs on the server's partition, and a
    // ring entry for the client's trace must be written on the client's
    // partition or the sealed flight-recorder boxes diverge under
    // partitioned execution. The tracer counters above carry the fact.
  }
  return changed;
}

bool MediaStreamSession::upgrade() {
  const bool changed = converter_.upgrade();
  if (changed) {
    ++quality_changes_;
    note_rate();
  }
  return changed;
}

void MediaStreamSession::note_rate() {
  if (auto* hub = sim_.telemetry()) {
    hub->tracer().counter(trace_track_, n_rate_, sim_.now(),
                          converter_.current_bitrate_bps());
  }
}

void MediaStreamSession::end_send_window() {
  if (!window_open_) return;
  window_open_ = false;
  if (auto* hub = sim_.telemetry()) {
    hub->tracer().end(trace_track_, sim_.now());
  }
  flush_qoe();
}

void MediaStreamSession::flush_qoe() {
  if (qoe_flushed_ || params_.trace.trace_id == 0) return;
  qoe_flushed_ = true;
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  auto& rec = hub->qoe().session(params_.trace.trace_id);
  for (int l = 0; l < telemetry::kQoeLevels; ++l) {
    rec.level_slots[l] += static_cast<int>(level_slots_[l]);
  }
  rec.quality_changes += quality_changes_;
}

void MediaStreamSession::flush_telemetry() {
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  auto& m = hub->metrics();
  const std::string prefix = "server/stream/" + spec_.id + "/";
  m.set(prefix + "frames_sent", static_cast<double>(stats_.frames_sent));
  m.set(prefix + "level", static_cast<double>(converter_.current_level()));
  if (sender_) sender_->flush_telemetry();
}

void MediaStreamSession::pause() {
  if (paused_ || stopped_) return;
  paused_ = true;
  pace_timer_.cancel();
}

void MediaStreamSession::resume() {
  if (!paused_ || stopped_) return;
  paused_ = false;
  if (is_rtp() && !complete_) schedule_next(source_->frame_interval());
}

void MediaStreamSession::stop() {
  if (stopped_) return;
  stopped_ = true;
  pace_timer_.cancel();
  end_send_window();
  if (sender_) sender_->send_bye("stream stopped");
}

proto::StreamSetupReply::StreamInfo MediaStreamSession::info() const {
  proto::StreamSetupReply::StreamInfo info;
  info.stream_id = spec_.id;
  info.via_rtp = is_rtp();
  info.frame_interval_us = source_->frame_interval().us();
  info.frame_count = frame_limit_;
  info.initial_level = converter_.current_level();
  if (is_rtp()) {
    info.ssrc = sender_->ssrc();
    info.payload_type = payload_type_for(source_->type());
    info.clock_rate = clock_rate_;
    info.sender_rtcp_node = sender_->rtcp_endpoint().node;
    info.sender_rtcp_port = sender_->rtcp_endpoint().port;
  } else {
    info.tcp_node = listener_->local().node;
    info.tcp_port = listener_->local().port;
    // Size query only — no reason to synthesize (and discard) a whole frame.
    info.total_bytes = source_->frame_bytes(0, converter_.current_level());
  }
  return info;
}

}  // namespace hyms::server
