#include "net/cross_traffic.hpp"

namespace hyms::net {

PacketSink::PacketSink(Network& net, NodeId node, Port port) : net_(net) {
  DatagramSocket& sock = net_.bind(node, port, [this](const Packet& pkt) {
    ++received_;
    bytes_ += static_cast<std::int64_t>(pkt.payload.size());
  });
  ep_ = sock.local();
}

PacketSink::~PacketSink() { net_.unbind(ep_); }

CbrSource::CbrSource(Network& net, NodeId from, Endpoint to, double rate_bps,
                     std::size_t packet_bytes)
    : net_(net), sim_(net.sim_at(from)), to_(to),
      socket_(&net.bind(from, 0, [](const Packet&) {})),
      rate_bps_(rate_bps), packet_bytes_(packet_bytes) {}

CbrSource::~CbrSource() { net_.unbind(socket_->local()); }

void CbrSource::start() {
  if (!emit_timer_.armed()) emit();
}

void CbrSource::stop() { emit_timer_.cancel(); }

void CbrSource::emit() {
  socket_->send(to_, Payload(packet_bytes_, 0xCB));
  ++sent_;
  const double interval_s =
      static_cast<double>(packet_bytes_) * 8.0 / rate_bps_;
  emit_timer_.arm_after(Time::seconds(interval_s), [this] { emit(); });
}

OnOffSource::OnOffSource(Network& net, NodeId from, Endpoint to, Params params,
                         std::uint64_t seed_stream)
    : net_(net), sim_(net.sim_at(from)), to_(to),
      socket_(&net.bind(from, 0, [](const Packet&) {})),
      params_(params), rng_(net.sim_at(from).rng().fork(seed_stream)),
      on_(params.start_in_on) {}

OnOffSource::~OnOffSource() { net_.unbind(socket_->local()); }

void OnOffSource::start() {
  if (running_) return;
  running_ = true;
  if (on_) emit();
  toggle_timer_.arm_after(
      Time::seconds(rng_.exponential(
          (on_ ? params_.mean_on : params_.mean_off).to_seconds())),
      [this] { toggle(); });
}

void OnOffSource::stop() {
  running_ = false;
  emit_timer_.cancel();
  toggle_timer_.cancel();
}

void OnOffSource::toggle() {
  if (!running_) return;
  on_ = !on_;
  if (on_) {
    emit();
  } else {
    emit_timer_.cancel();
  }
  toggle_timer_.arm_after(
      Time::seconds(rng_.exponential(
          (on_ ? params_.mean_on : params_.mean_off).to_seconds())),
      [this] { toggle(); });
}

void OnOffSource::emit() {
  if (!running_ || !on_) return;
  socket_->send(to_, Payload(params_.packet_bytes, 0xB0));
  ++sent_;
  const double interval_s =
      static_cast<double>(params_.packet_bytes) * 8.0 / params_.rate_bps_on;
  emit_timer_.arm_after(Time::seconds(interval_s), [this] { emit(); });
}

}  // namespace hyms::net
