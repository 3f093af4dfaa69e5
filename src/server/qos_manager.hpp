#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rtp/session.hpp"
#include "server/stream_session.hpp"
#include "sim/simulator.hpp"

namespace hyms::server {

/// The Server QoS Manager (§4, Fig. 3): consumes the client QoS manager's
/// RTCP feedback and drives the long-term synchronization recovery — graded
/// degradation/upgrade of stream quality through each stream's Media Stream
/// Quality Converter. Degradation targets video before audio ("users can
/// tolerate lower video quality rather than not hear well"); upgrades are
/// conservative and restore audio first.
class ServerQosManager {
 public:
  /// Which media type gives up quality first under congestion. The paper
  /// argues kVideoFirst ("users can tolerate lower video quality rather
  /// than not hear well"); kAudioFirst exists for the ablation.
  enum class DegradeOrder { kVideoFirst, kAudioFirst };

  struct Config {
    bool enabled = true;
    DegradeOrder degrade_order = DegradeOrder::kVideoFirst;
    double loss_degrade = 0.04;        // RR fraction-lost trigger
    int good_reports_for_upgrade = 5;  // clean reports on every stream
    Time action_hold = Time::sec(2);   // spacing between grading actions
    bool stop_at_floor = false;        // §4: "may choose to stop" the stream
  };

  ServerQosManager(sim::Simulator& sim, Config config)
      : sim_(sim), config_(config) {}

  /// Register a stream session of this presentation (non-owning). Returns
  /// its position, which the session's feedback callback passes back.
  std::size_t attach(MediaStreamSession* session);
  void detach_all();

  /// Entry point wired to every RtpSender's feedback callback.
  void on_feedback(std::size_t stream, const rtp::ReceiverFeedback& feedback);

  struct Stats {
    std::int64_t reports = 0;
    std::int64_t bad_reports = 0;
    std::int64_t degrades = 0;
    std::int64_t degrades_video = 0;
    std::int64_t degrades_audio = 0;
    std::int64_t upgrades = 0;
    std::int64_t stops = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Snapshot grading counters into the telemetry hub. No-op without one.
  void flush_telemetry();

 private:
  void note_grade(const char* action, const MediaStreamSession& session);

  struct StreamState {
    MediaStreamSession* session = nullptr;
    int good_streak = 0;
    bool last_bad = false;
  };

  [[nodiscard]] bool report_is_bad(const MediaStreamSession& session,
                                   const rtp::ReceiverFeedback& fb) const;
  void try_degrade();
  void try_upgrade();
  [[nodiscard]] MediaStreamSession* pick_degrade_victim(
      media::MediaType type) const;
  [[nodiscard]] MediaStreamSession* pick_upgrade_candidate(
      media::MediaType type) const;

  sim::Simulator& sim_;
  Config config_;
  std::vector<StreamState> streams_;  // in attach() order
  Time last_action_ = Time::usec(-1'000'000'000);
  Stats stats_;
};

}  // namespace hyms::server
