#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hyms::net {

/// Counts datagrams so cross traffic has somewhere to land.
class PacketSink {
 public:
  PacketSink(Network& net, NodeId node, Port port);
  ~PacketSink();
  [[nodiscard]] Endpoint endpoint() const { return ep_; }
  [[nodiscard]] std::int64_t received() const { return received_; }
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }

 private:
  Network& net_;
  Endpoint ep_;
  std::int64_t received_ = 0;
  std::int64_t bytes_ = 0;
};

/// Constant-bit-rate UDP source (background load floor).
class CbrSource {
 public:
  CbrSource(Network& net, NodeId from, Endpoint to, double rate_bps,
            std::size_t packet_bytes);
  ~CbrSource();
  void start();
  void stop();
  [[nodiscard]] std::int64_t sent() const { return sent_; }

 private:
  void emit();

  Network& net_;
  sim::Simulator& sim_;
  Endpoint to_;
  DatagramSocket* socket_;
  double rate_bps_;
  std::size_t packet_bytes_;
  sim::Timer emit_timer_{sim_};
  std::int64_t sent_ = 0;
};

/// On/off bursty UDP source with exponential ON and OFF sojourns. During ON
/// it sends at rate_bps_on; bursts congest the bottleneck and create exactly
/// the "periods of network load" (§7) that trigger short- and long-term
/// synchronization recovery.
class OnOffSource {
 public:
  struct Params {
    double rate_bps_on = 6e6;
    std::size_t packet_bytes = 1000;
    Time mean_on = Time::sec(2);
    Time mean_off = Time::sec(6);
    bool start_in_on = false;
  };

  OnOffSource(Network& net, NodeId from, Endpoint to, Params params,
              std::uint64_t seed_stream = 0xC0FFEE);
  ~OnOffSource();
  void start();
  void stop();
  [[nodiscard]] std::int64_t sent() const { return sent_; }
  [[nodiscard]] bool in_on_period() const { return on_; }

 private:
  void toggle();
  void emit();

  Network& net_;
  sim::Simulator& sim_;
  Endpoint to_;
  DatagramSocket* socket_;
  Params params_;
  util::Rng rng_;
  bool on_ = false;
  bool running_ = false;
  sim::Timer emit_timer_{sim_};
  sim::Timer toggle_timer_{sim_};
  std::int64_t sent_ = 0;
};

}  // namespace hyms::net
