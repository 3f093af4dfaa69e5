#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "media/quality.hpp"
#include "media/source.hpp"
#include "net/tcp.hpp"
#include "proto/messages.hpp"
#include "rtp/session.hpp"
#include "sim/simulator.hpp"
#include "telemetry/qoe.hpp"

namespace hyms::server {

/// Server side of one media flow (the flow scheduler's unit of work, §4).
/// Time-sensitive media (audio/video) are paced over RTP at the stream's
/// nominal frame rate, starting `spec.start` after flow start so the
/// client's media time window prefills during its deliberate initial delay.
/// Non-time-sensitive objects (images/text) are served over a dedicated
/// TCP-like connection (Fig. 5).
class MediaStreamSession {
 public:
  using FeedbackFn = rtp::RtpSender::FeedbackFn;

  struct Params {
    int initial_level = 0;
    int floor_level = 0;
    Time sr_interval = Time::sec(1);
    std::size_t max_payload = 1400;
    /// Scenario position to resume the flow from (session recovery): pacing
    /// starts at the frame covering this offset, with its original RTP
    /// timestamp, so a re-established client resumes where playout stopped.
    Time start_offset = Time::zero();
    /// Shared frame-synthesis cache (non-owning; the server outlives its
    /// sessions). Null = synthesize per frame, the uncached reference path.
    /// Payload bytes are identical either way.
    media::FrameCache* frame_cache = nullptr;
    /// Causal trace context of the StreamSetup request that created this
    /// flow: trace_id keys the session's QoE record (delivered-quality
    /// distribution, quality changes); the flow id is stepped through the
    /// stream's track at start_flow.
    telemetry::TraceContext trace;
  };

  /// RTP flow toward the client's per-stream receive port.
  static std::unique_ptr<MediaStreamSession> make_rtp(
      net::Network& net, net::NodeId server_node,
      std::shared_ptr<media::MediaSource> source, core::StreamSpec spec,
      net::Endpoint client_rtp, Params params);

  /// One-shot object flow: opens a listener the client connects to.
  static std::unique_ptr<MediaStreamSession> make_object(
      net::Network& net, net::NodeId server_node,
      std::shared_ptr<media::MediaSource> source, core::StreamSpec spec,
      Params params);

  ~MediaStreamSession();
  MediaStreamSession(const MediaStreamSession&) = delete;
  MediaStreamSession& operator=(const MediaStreamSession&) = delete;

  /// Launch the flow scenario: first frame at now + spec.start.
  void start_flow();
  void pause();
  void resume();
  void stop();

  [[nodiscard]] bool flow_complete() const { return complete_; }
  /// Scenario position of the flow: the next unsent frame's media time
  /// (journaled on server crash so a resumed session can pick up here).
  [[nodiscard]] Time media_position() const;
  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] bool stopped() const { return stopped_; }
  [[nodiscard]] const core::StreamSpec& spec() const { return spec_; }
  [[nodiscard]] bool is_rtp() const { return sender_ != nullptr; }

  // Long-term quality grading (Media Stream Quality Converter).
  bool degrade();
  bool upgrade();
  [[nodiscard]] int current_level() const { return converter_.current_level(); }
  [[nodiscard]] bool at_floor() const { return converter_.at_floor(); }
  [[nodiscard]] bool at_best() const { return converter_.at_best(); }
  [[nodiscard]] const media::QualityConverter& converter() const {
    return converter_;
  }
  [[nodiscard]] double current_bitrate_bps() const {
    return converter_.current_bitrate_bps();
  }

  /// Wire facts for the StreamSetupReply.
  [[nodiscard]] proto::StreamSetupReply::StreamInfo info() const;
  [[nodiscard]] std::uint32_t clock_rate() const { return clock_rate_; }
  [[nodiscard]] media::MediaType media_type() const { return source_->type(); }

  void set_on_feedback(FeedbackFn fn) { on_feedback_ = std::move(fn); }

  struct Stats {
    std::int64_t frames_sent = 0;
    std::int64_t objects_served = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Snapshot flow counters into the telemetry hub. No-op without one.
  void flush_telemetry();

 private:
  MediaStreamSession(net::Network& net, net::NodeId server_node,
                     std::shared_ptr<media::MediaSource> source,
                     core::StreamSpec spec, Params params);

  void pace_frame();
  void schedule_next(Time delay);
  void note_rate();
  void end_send_window();
  /// Fold this flow's locally accumulated quality accounting (per-level slot
  /// counts, grade changes) into the session's QoE record. Once per flow.
  void flush_qoe();

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId node_;
  std::shared_ptr<media::MediaSource> source_;
  core::StreamSpec spec_;
  Params params_;
  media::QualityConverter converter_;

  // RTP flow state.
  std::unique_ptr<rtp::RtpSender> sender_;
  std::uint32_t clock_rate_ = 90'000;
  std::int64_t frame_limit_ = 1;  // frames to send (bounded by DURATION)
  std::int64_t next_frame_ = 0;
  sim::Timer pace_timer_{sim_};

  // Object flow state.
  std::unique_ptr<net::StreamListener> listener_;
  std::vector<std::unique_ptr<net::StreamConnection>> object_conns_;

  bool began_ = false;  // first pace_frame() happened (telemetry window)
  bool paused_ = false;
  bool stopped_ = false;
  bool complete_ = false;
  FeedbackFn on_feedback_;
  Stats stats_;

  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_send_window_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_rate_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_object_ = telemetry::kInvalidTraceId;
  bool window_open_ = false;

  // Delivered-quality accounting: plain counters on the pace path (always
  // on, no hub dependency), folded into the QoE plane once at flow end.
  std::int64_t level_slots_[telemetry::kQoeLevels] = {0, 0, 0, 0};
  int quality_changes_ = 0;
  bool qoe_flushed_ = false;
};

}  // namespace hyms::server
