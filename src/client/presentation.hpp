#pragma once

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "buffer/media_buffer.hpp"
#include "core/playout.hpp"
#include "core/scenario.hpp"
#include "net/tcp.hpp"
#include "proto/messages.hpp"
#include "rtp/session.hpp"

namespace hyms::client {

/// The Client QoS Manager box of Fig. 3: the metrics one stream's RTCP
/// receiver report carries as APP("QOSM") — the paper's "feedback reports to
/// the sending side" (§4). In order: the buffer's occupancy ("buffer_ms", so
/// the server sees imminent underflow), the RFC jitter estimate
/// ("jitter_ms") and the count of frames that failed reassembly
/// ("incomplete").
[[nodiscard]] std::vector<std::pair<std::string, double>> qos_metrics(
    const buffer::MediaBuffer& buffer, const rtp::RtpReceiver& receiver);

/// Everything the browser instantiates to play one document: per-stream
/// media buffers, RTP receivers (time-sensitive media, each reporting
/// qos_metrics), TCP object fetchers (images/text) and the playout
/// scheduler.
///
/// The scenario is the presentation's stream table: streams are kept in
/// scenario order (its ids are unique), and the few names that arrive at the
/// edges — the setup reply, receiver(), disable_stream() — are found by one
/// scan of that short list.
class PresentationRuntime {
 public:
  struct Config {
    Time time_window = Time::msec(500);  // media time window per buffer
    double low_watermark = 0.25;
    double high_watermark = 2.0;
    core::SyncPolicy sync;
    core::RebufferPolicy rebuffer;  // off by default
    bool drop_on_overflow = true;
    bool record_events = false;
    Time rtcp_rr_interval = Time::sec(1);
    /// Scenario position to resume from (session recovery). Rides the
    /// StreamSetup as resume_offset_us so the server paces flows from here,
    /// and seeds the playout scheduler's clock to match.
    Time start_offset = Time::zero();
  };

  PresentationRuntime(net::Network& net, net::NodeId node,
                      core::PresentationScenario scenario, Config config);
  ~PresentationRuntime();
  PresentationRuntime(const PresentationRuntime&) = delete;
  PresentationRuntime& operator=(const PresentationRuntime&) = delete;

  /// Phase 1 (once): allocate buffers + RTP receive ports; returns the
  /// StreamSetup message for the server (ports for every time-sensitive
  /// stream).
  proto::StreamSetup prepare_setup(const std::string& document_name);

  /// Phase 2: wire the server's reply (receivers learn sender RTCP
  /// endpoints, object fetchers connect over `tcp`, the session's transport
  /// settings) and start the playout scheduler.
  void activate(const proto::StreamSetupReply& reply,
                const net::TcpParams& tcp);

  void pause();
  void resume();
  /// Stop consuming a single stream (user disabled the media).
  void disable_stream(std::string_view stream_id);

  [[nodiscard]] core::PlayoutScheduler& scheduler() { return *scheduler_; }
  /// Propagate the StreamSetup's causal trace context into the playout
  /// scheduler (the request's flow terminates at the first playout start).
  void set_trace_context(const telemetry::TraceContext& ctx) {
    scheduler_->set_trace_context(ctx);
  }
  [[nodiscard]] const core::PlayoutTrace& trace() const {
    return scheduler_->trace();
  }
  [[nodiscard]] const core::PresentationScenario& scenario() const {
    return scenario_;
  }
  /// The stream's RTP receiver; null for objects, disabled streams and
  /// names the scenario lacks.
  [[nodiscard]] rtp::RtpReceiver* receiver(std::string_view stream_id);
  /// An object fetch whose transport died before the payload completed: the
  /// one-shot poll would otherwise wait forever. Liveness detection treats
  /// this as a dead presentation (the stream cannot finish without help).
  [[nodiscard]] bool objects_stalled() const;
  /// Scenario position to resume from after an outage: the least content
  /// position among continuous streams (resuming at the laggard replays a
  /// sliver on the leaders rather than losing content on the laggard).
  /// Positions are absolute scenario time, so they compose across repeated
  /// recoveries of resumed presentations.
  [[nodiscard]] Time playout_position() const;

  struct Stats {
    std::int64_t frames_received = 0;
    std::int64_t frames_buffered = 0;
    std::int64_t payload_corruptions = 0;
    std::int64_t objects_fetched = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Snapshot client-side counters (frame delivery, per-stream buffer
  /// occupancy, RTP receiver stats) into the telemetry hub. No-op without
  /// a hub installed on the simulator.
  void flush_telemetry();

 private:
  struct StreamRuntime {
    explicit StreamRuntime(const core::StreamSpec& s) : spec(s) {}

    const core::StreamSpec& spec;  // scenario_.streams, same position
    std::unique_ptr<buffer::MediaBuffer> buffer;
    std::unique_ptr<rtp::RtpReceiver> receiver;  // RTP streams only
    Time frame_interval;
    std::int64_t frame_count = 1;
    // TCP object fetch state. The object arrives as an 8-byte length
    // prefix and then its bytes; only the prefix is kept, the rest counted.
    std::unique_ptr<net::StreamConnection> object_conn;
    std::array<std::uint8_t, 8> object_prefix{};
    std::uint64_t object_received = 0;  // bytes so far, prefix included
    bool object_done = false;
  };

  /// The stream named `stream_id`, or null.
  [[nodiscard]] StreamRuntime* find(std::string_view stream_id);
  void on_frame(StreamRuntime& rt, const rtp::ReceivedFrame& frame);
  void fetch_object(StreamRuntime& rt,
                    const proto::StreamSetupReply::StreamInfo& info,
                    const net::TcpParams& tcp);

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId node_;
  core::PresentationScenario scenario_;
  Config config_;
  std::vector<StreamRuntime> streams_;  // scenario order, from prepare_setup
  std::unique_ptr<core::PlayoutScheduler> scheduler_;
  Stats stats_;
};

}  // namespace hyms::client
