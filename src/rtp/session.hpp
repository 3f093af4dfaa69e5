#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "rtp/packets.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace hyms::rtp {

/// Media-clock conversion: RTP timestamps tick at clock_rate Hz.
struct MediaClock {
  std::uint32_t clock_rate = 90'000;  // video default; audio uses sample rate

  [[nodiscard]] std::uint32_t to_rtp(Time t) const {
    return static_cast<std::uint32_t>(
        (t.us() * static_cast<std::int64_t>(clock_rate)) / 1'000'000);
  }
  [[nodiscard]] Time to_time(std::uint32_t ts) const {
    return Time::usec(static_cast<std::int64_t>(ts) * 1'000'000 /
                      static_cast<std::int64_t>(clock_rate));
  }
  [[nodiscard]] double rtp_units_to_ms(double units) const {
    return units * 1000.0 / static_cast<double>(clock_rate);
  }
};

/// Feedback digest handed to the sender's QoS manager on every RTCP receiver
/// report: the standard RR block plus our APP("QOSM") metrics and an RTT
/// estimate from LSR/DLSR.
struct ReceiverFeedback {
  ReportBlock block;
  std::optional<double> rtt_ms;
  std::vector<std::pair<std::string, double>> app_metrics;
  Time at;
  double fraction_lost() const {
    return static_cast<double>(block.fraction_lost) / 256.0;
  }
};

/// Sending half of an RTP session: fragments media frames into RTP packets,
/// emits periodic Sender Reports, consumes Receiver Reports.
class RtpSender {
 public:
  using FeedbackFn = std::function<void(const ReceiverFeedback&)>;

  struct Params {
    std::uint32_t ssrc = 0;
    std::uint8_t payload_type = 96;
    MediaClock clock;
    std::size_t max_payload = 1400;   // fragment size
    Time sr_interval = Time::sec(1);
    /// Telemetry track name ("" -> "rtp/sender/<ssrc>").
    std::string label;
  };

  RtpSender(net::Network& net, net::NodeId node, net::Endpoint remote_rtp,
            net::Endpoint remote_rtcp, Params params);
  ~RtpSender();
  RtpSender(const RtpSender&) = delete;
  RtpSender& operator=(const RtpSender&) = delete;

  /// Send one media frame stamped at media-relative time `media_time`.
  /// Equivalent to append_frame() + flush(): the frame's fragments travel as
  /// one packet train through the network's batched path.
  void send_frame(const std::vector<std::uint8_t>& data, Time media_time);
  /// Packetize a frame into the pending train without submitting it. Lets a
  /// pacing loop coalesce several same-tick frames into one train; call
  /// flush() when the burst is complete. Sequence numbers, timestamps and
  /// stats are identical to per-frame send_frame() calls. Throws
  /// std::invalid_argument, sending nothing, for a frame that needs more
  /// than kMaxFragments fragments.
  void append_frame(const std::vector<std::uint8_t>& data, Time media_time);
  /// Span form of append_frame — the zero-copy hot path: each fragment is
  /// serialized from `data` in place (typically a FrameCache-shared frame
  /// body) straight into a recycled wire buffer. No intermediate per-
  /// fragment payload vector is built; the pool keeps owning the headers.
  void append_frame(const std::uint8_t* data, std::size_t size,
                    Time media_time);
  /// Submit the pending train (no-op when empty).
  void flush();
  void set_on_feedback(FeedbackFn fn) { on_feedback_ = std::move(fn); }
  void send_bye(const std::string& reason);

  /// RTCP endpoint receivers should address their reports to.
  [[nodiscard]] net::Endpoint rtcp_endpoint() const {
    return rtcp_socket_->local();
  }
  [[nodiscard]] std::uint32_t ssrc() const { return params_.ssrc; }

  struct Stats {
    std::int64_t frames_sent = 0;
    std::int64_t packets_sent = 0;
    std::int64_t octets_sent = 0;
    std::int64_t reports_received = 0;
    double last_rtt_ms = 0.0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Snapshot sender counters into the telemetry hub. No-op without a hub.
  void flush_telemetry();

 private:
  void emit_sender_report();
  /// Emit a sender report every sr_interval, re-arming after each report.
  void arm_sender_report();
  void on_rtcp(const net::Packet& pkt);

  net::Network& net_;
  sim::Simulator& sim_;
  net::PayloadPool* pool_;  // the sender node's partition pool
  Params params_;
  net::Endpoint remote_rtp_;
  net::Endpoint remote_rtcp_;
  net::DatagramSocket* rtp_socket_;
  net::DatagramSocket* rtcp_socket_;
  std::uint16_t next_seq_;
  std::uint32_t last_rtp_ts_ = 0;
  std::vector<net::Payload> train_;  // pending wire buffers awaiting flush()
  FeedbackFn on_feedback_;
  sim::Timer sr_timer_{sim_};
  Stats stats_;

  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_report_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_rtt_ = telemetry::kInvalidTraceId;
};

/// A reassembled media frame as delivered to the buffering layer.
struct ReceivedFrame {
  /// The frame's bytes as one view per fragment, in fragment order, each
  /// viewing the wire buffer that fragment arrived in (no byte is copied on
  /// the way in). Valid only until the on_frame callback returns: the
  /// receiver then returns the buffers to its node's payload pool. A
  /// consumer that keeps the bytes copies them inside the callback;
  /// media::verify_frame_payload checks the list in place.
  std::span<const std::span<const std::uint8_t>> fragments;
  std::uint32_t rtp_timestamp = 0;
  Time media_time;     // rtp_timestamp mapped through the media clock
  Time arrival;        // simulation time the last fragment arrived
  Time network_transit;  // one-way delay of the completing fragment
  std::uint32_t ssrc = 0;
};

/// Receiving half: reassembles frames, maintains the RFC 1889 receiver
/// statistics (extended sequence, fraction lost, interarrival jitter), and
/// emits periodic Receiver Reports + APP("QOSM") feedback to the sender.
class RtpReceiver {
 public:
  using FrameFn = std::function<void(const ReceivedFrame&)>;
  /// Lets the client QoS manager append its own metrics to each report.
  using MetricsFn = std::function<std::vector<std::pair<std::string, double>>()>;

  struct Params {
    std::uint32_t local_ssrc = 0;      // reporter SSRC
    MediaClock clock;
    Time rr_interval = Time::sec(1);
    Time reassembly_timeout = Time::msec(1500);
    /// Telemetry track name ("" -> "rtp/receiver/<ssrc>").
    std::string label;
  };

  RtpReceiver(net::Network& net, net::NodeId node, net::Port rtp_port,
              net::Endpoint sender_rtcp, Params params);
  ~RtpReceiver();
  RtpReceiver(const RtpReceiver&) = delete;
  RtpReceiver& operator=(const RtpReceiver&) = delete;

  void set_on_frame(FrameFn fn) { on_frame_ = std::move(fn); }
  void set_extra_metrics(MetricsFn fn) { extra_metrics_ = std::move(fn); }
  /// Install the stream's media clock (learned during stream setup). Must be
  /// called before the first RTP packet arrives — timestamp mapping and the
  /// jitter estimator depend on it.
  void set_clock(MediaClock clock) { params_.clock = clock; }
  /// Address reports to a (possibly renegotiated) sender RTCP endpoint.
  void set_sender_rtcp(net::Endpoint ep) { sender_rtcp_ = ep; }

  [[nodiscard]] net::Endpoint rtp_endpoint() const {
    return rtp_socket_->local();
  }

  struct Stats {
    std::int64_t packets_received = 0;
    std::int64_t frames_delivered = 0;
    std::int64_t frames_incomplete = 0;  // evicted with missing fragments
    std::int64_t reports_sent = 0;
    std::int64_t packets_lost_cumulative = 0;
    double jitter_ms = 0.0;              // RFC estimator, converted
    util::Sampler transit_ms;            // true one-way delays observed
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Force an immediate receiver report (used when feedback must not wait).
  void send_report_now() { emit_receiver_report(); }

  /// Snapshot receiver counters into the telemetry hub. No-op without a hub.
  void flush_telemetry();

 private:
  /// One fragment, held in the wire buffer it arrived in: the payload is
  /// wire[offset, offset + length). An empty `wire` is a missing fragment.
  struct Part {
    net::Payload wire;
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  /// One in-flight frame reassembly. Slots live in a small flat array
  /// scanned linearly (a session rarely has more than one or two frames in
  /// flight); dead slots are recycled, and `parts` never shrinks. A live
  /// slot holds its fragments' wire buffers; they go back to the pool when
  /// the frame is delivered or evicted, so a dead slot holds none, and in
  /// steady state no fragment or frame allocates.
  struct Assembly {
    std::uint32_t rtp_timestamp = 0;
    bool live = false;
    std::uint16_t frag_count = 0;  // parts[0, frag_count) are this frame's
    std::vector<Part> parts;
    std::size_t received = 0;
    Time first_arrival;
    Time last_transit;
  };

  Assembly& assembly_for(std::uint32_t rtp_ts, std::uint16_t frag_count,
                         Time now);
  /// Return the slot's held wire buffers to the pool.
  void release_parts(Assembly& asmb);
  void on_rtp(net::Packet&& pkt);
  void on_rtcp(const net::Packet& pkt);
  void update_sequence(std::uint16_t seq);
  void update_jitter(std::uint32_t rtp_ts, Time arrival);
  void evict_stale(Time now);
  void emit_receiver_report();
  /// Emit a receiver report every rr_interval, re-arming after each report.
  void arm_receiver_report();

  net::Network& net_;
  sim::Simulator& sim_;
  net::PayloadPool* pool_;  // the receiver node's partition pool
  Params params_;
  net::Endpoint sender_rtcp_;
  net::DatagramSocket* rtp_socket_;
  net::DatagramSocket* rtcp_socket_;
  FrameFn on_frame_;
  MetricsFn extra_metrics_;
  sim::Timer rr_timer_{sim_};

  // RFC 1889 appendix A receiver state.
  bool seq_initialized_ = false;
  std::uint32_t remote_ssrc_ = 0;
  std::uint16_t max_seq_ = 0;
  std::uint32_t cycles_ = 0;
  std::uint32_t base_seq_ = 0;
  std::uint32_t received_count_ = 0;
  std::uint32_t expected_prior_ = 0;
  std::uint32_t received_prior_ = 0;
  double jitter_units_ = 0.0;
  bool transit_initialized_ = false;
  double last_transit_units_ = 0.0;

  // Last SR bookkeeping for LSR/DLSR.
  std::uint32_t last_sr_middle_ = 0;
  Time last_sr_arrival_;

  std::vector<Assembly> assemblies_;  // flat, linearly scanned, recycled
  std::size_t live_assemblies_ = 0;
  /// The delivered frame's fragment views, recycled across frames.
  std::vector<std::span<const std::uint8_t>> views_;
  Stats stats_;

  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_jitter_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_lost_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_incomplete_ = telemetry::kInvalidTraceId;
};

}  // namespace hyms::rtp
