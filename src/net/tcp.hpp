#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace hyms::net {

/// Tunables of the TCP-like reliable transport. Defaults approximate a 1996
/// BSD stack scaled to the emulated RTTs.
struct TcpParams {
  Time max_rto = Time::sec(60);
  Time initial_rto = Time::sec(1);
  int max_syn_retries = 6;
  /// Consecutive data-path RTO expiries tolerated before the connection
  /// gives up and closes with CloseReason::kRetransmitTimeout (the "R2"
  /// retry budget). 0 = retry forever (pre-fault-injection behaviour).
  /// Any ACK of new data resets the count.
  int max_retransmits = 12;
};

/// Why a StreamConnection reached kClosed — lets callers distinguish an
/// orderly FIN exchange from a path/peer failure without string matching.
enum class CloseReason : std::uint8_t {
  kNone,               // not closed yet
  kGraceful,           // FIN handshake completed (either side initiated)
  kConnectTimeout,     // active/passive open exhausted max_syn_retries
  kRetransmitTimeout,  // data retransmission exhausted max_retransmits
  kAborted,            // local abort()
};

[[nodiscard]] const char* to_string(CloseReason reason);

/// Reliable, in-order byte stream over the emulated datagram service:
/// cumulative ACKs, Jacobson/Karels RTO, slow start + AIMD congestion
/// avoidance, fast retransmit on 3 duplicate ACKs. This carries the paper's
/// scenario files, text and images (Fig. 5); its unbounded delivery delay
/// under loss is exactly why time-sensitive media ride RTP instead (E7).
class StreamConnection {
 public:
  using DataFn = std::function<void(std::span<const std::uint8_t>)>;
  using NotifyFn = std::function<void()>;

  /// Active open (client side).
  static std::unique_ptr<StreamConnection> connect(Network& net, NodeId local,
                                                   Endpoint remote,
                                                   TcpParams params = {});

  ~StreamConnection();
  StreamConnection(const StreamConnection&) = delete;
  StreamConnection& operator=(const StreamConnection&) = delete;

  /// Queue bytes for reliable delivery.
  void send(std::span<const std::uint8_t> data);
  void send(const std::vector<std::uint8_t>& data) {
    send(std::span<const std::uint8_t>{data.data(), data.size()});
  }

  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }
  void set_on_connect(NotifyFn fn) { on_connect_ = std::move(fn); }
  void set_on_close(NotifyFn fn) { on_close_ = std::move(fn); }

  /// Graceful close: flushes the send buffer, then FIN.
  void close();
  /// Immediate teardown (suspended-connection expiry in §5 uses this).
  void abort();

  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }
  /// Typed cause of the close (kNone while the connection is alive).
  [[nodiscard]] CloseReason close_reason() const { return close_reason_; }
  /// Current (possibly backed-off) retransmission timeout.
  [[nodiscard]] Time current_rto() const { return rto_; }
  [[nodiscard]] Endpoint local() const { return local_; }
  [[nodiscard]] Endpoint remote() const { return remote_; }

  struct Stats {
    std::int64_t bytes_sent = 0;
    std::int64_t bytes_received = 0;
    std::int64_t segments_sent = 0;
    std::int64_t retransmissions = 0;
    std::int64_t fast_retransmits = 0;
    std::int64_t timeouts = 0;
    double srtt_ms = 0.0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t unacked_bytes() const {
    return static_cast<std::size_t>(snd_nxt_ - snd_una_);
  }
  [[nodiscard]] std::size_t send_queue_bytes() const {
    return send_buf_.size();
  }

 private:
  friend class StreamListener;

  enum class State { kClosed, kSynSent, kSynReceived, kEstablished, kFinSent };

  enum Flags : std::uint8_t {
    kSyn = 1,
    kAck = 2,
    kFin = 4,
    kData = 8,
  };

  StreamConnection(Network& net, NodeId local_node, Endpoint remote,
                   TcpParams params, bool passive);

  void start_active_open();
  void on_datagram(const Packet& pkt);
  void handle_ack(std::uint32_t ack);
  void handle_data(std::uint32_t seq, std::span<const std::uint8_t> data,
                   bool fin);
  void try_send();
  /// Send one segment. A data segment carries the `len` send-buffer bytes
  /// from `seq`; SYN, FIN and bare control segments pass 0.
  void emit_segment(std::uint32_t seq, std::uint8_t flags, std::size_t len,
                    bool is_retransmit);
  void send_ack();
  void arm_rto();
  void on_rto();
  void update_rtt(Time sample);
  void enter_established();
  void teardown(CloseReason reason = CloseReason::kGraceful);

  Network& net_;
  sim::Simulator& sim_;
  PayloadPool* pool_;  // the connection node's partition pool
  TcpParams params_;
  Endpoint local_;
  Endpoint remote_;
  DatagramSocket* socket_ = nullptr;
  State state_ = State::kClosed;

  // Send side (byte sequence space; SYN and FIN each consume one number).
  std::uint32_t iss_ = 0;         // initial send sequence
  std::uint32_t snd_una_ = 0;     // oldest unacked
  std::uint32_t snd_nxt_ = 0;     // next to send
  std::uint32_t snd_max_ = 0;     // highest sequence ever sent (go-back-N
                                  // rewinds snd_nxt_, but ACKs up to snd_max_
                                  // remain valid)
  std::deque<std::uint8_t> send_buf_;
  std::uint32_t send_buf_base_ = 0;  // seq of send_buf_.front()
  bool fin_pending_ = false;
  bool fin_sent_ = false;

  // Congestion control.
  double cwnd_ = 0.0;          // bytes
  double ssthresh_ = 1e9;      // bytes
  int dup_acks_ = 0;
  std::uint32_t recover_point_ = 0;  // go-back-N: below this = retransmit

  // RTT estimation (Karn: only time unretransmitted probes).
  bool rtt_probe_active_ = false;
  std::uint32_t rtt_probe_seq_ = 0;
  Time rtt_probe_sent_at_;
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  Time rto_;
  sim::Timer rto_timer_{sim_};
  int syn_retries_ = 0;
  int consecutive_rtos_ = 0;  // data-path RTOs since the last new-data ACK
  CloseReason close_reason_ = CloseReason::kNone;

  // Receive side.
  std::uint32_t irs_ = 0;      // initial receive sequence
  std::uint32_t rcv_nxt_ = 0;  // next expected byte
  std::map<std::uint32_t, std::vector<std::uint8_t>> ooo_;  // out-of-order
  bool fin_received_ = false;
  std::uint32_t fin_seq_ = 0;
  bool close_notified_ = false;

  DataFn on_data_;
  NotifyFn on_connect_;
  NotifyFn on_close_;
  Stats stats_;
};

/// Passive opener: accepts SYNs on a well-known port and hands each peer a
/// dedicated server-side StreamConnection (bound to a fresh ephemeral port,
/// learned by the client from the SYN-ACK source).
class StreamListener {
 public:
  using AcceptFn = std::function<void(std::unique_ptr<StreamConnection>)>;

  StreamListener(Network& net, NodeId node, Port port, AcceptFn on_accept,
                 TcpParams params = {});
  ~StreamListener();
  StreamListener(const StreamListener&) = delete;
  StreamListener& operator=(const StreamListener&) = delete;

  [[nodiscard]] Endpoint local() const { return local_; }

 private:
  Network& net_;
  Endpoint local_;
  TcpParams params_;
  AcceptFn on_accept_;
};

/// Length-prefixed message framing over a StreamConnection — the service
/// control protocol (§5) exchanges typed messages through this.
class MessageChannel {
 public:
  using MessageFn = std::function<void(std::vector<std::uint8_t>)>;

  explicit MessageChannel(StreamConnection& conn) : conn_(conn) {
    conn_.set_on_data([this](std::span<const std::uint8_t> chunk) {
      on_bytes(chunk);
    });
  }

  void send_message(const std::vector<std::uint8_t>& body);
  void set_on_message(MessageFn fn) { on_message_ = std::move(fn); }
  [[nodiscard]] StreamConnection& connection() { return conn_; }

 private:
  void on_bytes(std::span<const std::uint8_t> chunk);

  StreamConnection& conn_;
  std::vector<std::uint8_t> rx_;
  MessageFn on_message_;
};

}  // namespace hyms::net
