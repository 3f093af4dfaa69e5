#include "net/network.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/log.hpp"

namespace hyms::net {

void DatagramSocket::send(Endpoint dst, Payload payload) {
  net_.send(local_, dst, std::move(payload));
}

Network::Network(std::vector<sim::Simulator*> sims, sim::ParallelExec* exec)
    : sims_(std::move(sims)), exec_(exec),
      rng_(sims_.at(0)->rng().fork(0x4E4554)), shards_(sims_.size()) {
  if (sims_.size() > 1 && exec_ == nullptr) {
    throw std::invalid_argument(
        "Network: multiple partitions require a ParallelExec");
  }
}

void Network::set_node_partition(NodeId node, std::uint32_t p) {
  if (node >= nodes_.size() || p >= sims_.size()) {
    throw std::invalid_argument("set_node_partition: bad node or partition");
  }
  if (!nodes_[node]->out_links.empty()) {
    throw std::logic_error(
        "set_node_partition: node already has links (links are homed at "
        "connect time)");
  }
  nodes_[node]->partition = p;
}

NodeId Network::add_host(std::string name) {
  return add_node(std::move(name), /*is_host=*/true);
}

NodeId Network::add_router(std::string name) {
  return add_node(std::move(name), /*is_host=*/false);
}

NodeId Network::add_node(std::string name, bool is_host) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto node = std::make_unique<Node>();
  node->id = id;
  node->name = std::move(name);
  node->is_host = is_host;
  nodes_.push_back(std::move(node));
  routes_dirty_ = true;
  return id;
}

std::pair<Link*, Link*> Network::connect(NodeId a, NodeId b,
                                         const LinkParams& both) {
  return connect(a, b, both, both);
}

std::pair<Link*, Link*> Network::connect(NodeId a, NodeId b,
                                         const LinkParams& ab,
                                         const LinkParams& ba) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("Network::connect: bad node ids");
  }
  if (ab.propagation < Time::zero() || ba.propagation < Time::zero()) {
    throw std::invalid_argument("Network::connect: negative propagation");
  }
  auto make = [this](NodeId from, NodeId to, const LinkParams& p) {
    const std::uint32_t sp = nodes_[from]->partition;
    const std::uint32_t dp = nodes_[to]->partition;
    auto link = std::make_unique<Link>(
        *sims_[sp], nodes_[from]->name + "->" + nodes_[to]->name, p, to,
        [this, to](Packet&& pkt) { deliver_at(to, std::move(pkt)); },
        rng_.fork(next_link_rng_++), &shards_[sp].pool);
    if (sp != dp) link->make_conduit(*sims_[dp], *exec_, sp, dp);
    Link* raw = link.get();
    nodes_[from]->out_links.push_back(std::move(link));
    return raw;
  };
  Link* fwd = make(a, b, ab);
  Link* rev = make(b, a, ba);
  routes_dirty_ = true;
  return {fwd, rev};
}

Time Network::cross_lookahead() const {
  Time lookahead = Time::max();
  for (const auto& node : nodes_) {
    for (const auto& link : node->out_links) {
      if (link->is_conduit()) {
        lookahead = std::min(lookahead, link->params().propagation);
      }
    }
  }
  return lookahead;
}

void Network::compute_routes() {
  // All-pairs next hop by BFS from every node (hop-count shortest path). The
  // result is a flat per-node vector indexed by destination, so forwarding is
  // one bounds check and one load per hop.
  for (auto& src : nodes_) {
    src->next_hop.assign(nodes_.size(), nullptr);  // first-hop link from src
    std::deque<NodeId> frontier{src->id};
    std::vector<bool> seen(nodes_.size(), false);
    seen[src->id] = true;
    while (!frontier.empty()) {
      const NodeId cur = frontier.front();
      frontier.pop_front();
      for (auto& link : nodes_[cur]->out_links) {
        const NodeId nxt = link->to_node();
        if (seen[nxt]) continue;
        seen[nxt] = true;
        src->next_hop[nxt] =
            (cur == src->id) ? link.get() : src->next_hop[cur];
        frontier.push_back(nxt);
      }
    }
  }
  routes_dirty_ = false;
}

DatagramSocket& Network::bind(NodeId host, Port port,
                              DatagramSocket::ReceiveFn fn) {
  if (host >= nodes_.size()) throw std::invalid_argument("bind: bad host");
  Node& node = *nodes_[host];
  if (port == 0) {
    while (node.sockets.contains(node.next_ephemeral)) ++node.next_ephemeral;
    port = node.next_ephemeral++;
  }
  if (node.sockets.contains(port)) {
    throw std::invalid_argument("bind: port in use on " + node.name);
  }
  auto sock = std::make_unique<DatagramSocket>(*this, Endpoint{host, port});
  sock->set_receiver(std::move(fn));
  DatagramSocket& ref = *sock;
  node.sockets[port] = std::move(sock);
  return ref;
}

void Network::unbind(Endpoint ep) {
  if (ep.node >= nodes_.size()) return;
  nodes_[ep.node]->sockets.erase(ep.port);
  // Only the owning partition's shard can have memoized this endpoint
  // (socket_for runs on the node's partition), so clearing just that memo
  // keeps unbind race-free during a window.
  Shard& shard = shard_of(ep.node);
  shard.cached_sock = nullptr;
  shard.cached_sock_node = kNoNode;
}

DatagramSocket* Network::socket_for(Node& node, Port port) {
  Shard& shard = shards_[node.partition];
  if (shard.cached_sock != nullptr && shard.cached_sock_node == node.id &&
      shard.cached_sock_port == port) {
    return shard.cached_sock;
  }
  auto it = node.sockets.find(port);
  if (it == node.sockets.end()) return nullptr;
  shard.cached_sock = it->second.get();
  shard.cached_sock_node = node.id;
  shard.cached_sock_port = port;
  return shard.cached_sock;
}

void Network::send(Endpoint src, Endpoint dst, Payload payload) {
  if (routes_dirty_) compute_routes();
  Shard& shard = shard_of(src.node);
  ++shard.stats.sent;
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.payload = std::move(payload);
  pkt.id = shard.next_packet_id++;
  pkt.injected_at = sims_[nodes_[src.node]->partition]->now();
  deliver_at(src.node, std::move(pkt));
}

void Network::deliver_local(Node& node, Packet&& pkt) {
  Shard& shard = shards_[node.partition];
  DatagramSocket* sock = socket_for(node, pkt.dst.port);
  if (sock == nullptr) {
    ++shard.stats.dropped_no_socket;
    LOG_TRACE << "no socket at " << node.name << ":" << pkt.dst.port;
    shard.pool.release(std::move(pkt.payload));
    return;
  }
  ++shard.stats.delivered;
  shard.stats.end_to_end_delay_ms.add(
      (sims_[node.partition]->now() - pkt.injected_at).to_ms());
  sock->deliver(pkt);
  // Receivers see a const Packet& and copy what they keep, so the payload
  // buffer can be recycled as soon as the callback returns.
  shard.pool.release(std::move(pkt.payload));
}

void Network::deliver_at(NodeId node_id, Packet&& pkt) {
  Node& node = *nodes_[node_id];
  if (pkt.dst.node == node_id) {
    deliver_local(node, std::move(pkt));
    return;
  }
  Link* hop = pkt.dst.node < node.next_hop.size() ? node.next_hop[pkt.dst.node]
                                                  : nullptr;
  if (hop == nullptr) {
    ++shards_[node.partition].stats.dropped_no_route;
    LOG_WARN << "no route from " << node.name << " to node " << pkt.dst.node;
    shards_[node.partition].pool.release(std::move(pkt.payload));
    return;
  }
  hop->transmit(std::move(pkt));
}

void Network::send_train(Endpoint src, Endpoint dst,
                         std::vector<Payload>& payloads) {
  if (payloads.empty()) return;
  if (routes_dirty_) compute_routes();
  Shard& shard = shard_of(src.node);
  sim::Simulator& sim = *sims_[nodes_[src.node]->partition];
  std::vector<Packet>& scratch = shard.train_scratch;
  scratch.clear();
  scratch.reserve(payloads.size());
  for (Payload& payload : payloads) {
    ++shard.stats.sent;
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.payload = std::move(payload);
    pkt.id = shard.next_packet_id++;
    pkt.injected_at = sim.now();
    scratch.push_back(std::move(pkt));
  }
  payloads.clear();
  Node& node = *nodes_[src.node];
  if (dst.node == src.node) {
    // Node-local burst: no link to cross, hand the train to the socket in
    // one callback (per-packet delivery stats preserved).
    DatagramSocket* sock = socket_for(node, dst.port);
    if (sock == nullptr) {
      shard.stats.dropped_no_socket += static_cast<std::int64_t>(scratch.size());
      LOG_TRACE << "no socket at " << node.name << ":" << dst.port;
      for (auto& pkt : scratch) shard.pool.release(std::move(pkt.payload));
      scratch.clear();
      return;
    }
    shard.stats.delivered += static_cast<std::int64_t>(scratch.size());
    for (auto& pkt : scratch) {
      shard.stats.end_to_end_delay_ms.add((sim.now() - pkt.injected_at).to_ms());
    }
    sock->deliver_train(scratch);
    for (auto& pkt : scratch) shard.pool.release(std::move(pkt.payload));
    scratch.clear();
    return;
  }
  Link* hop = dst.node < node.next_hop.size() ? node.next_hop[dst.node]
                                              : nullptr;
  if (hop == nullptr) {
    shard.stats.dropped_no_route += static_cast<std::int64_t>(scratch.size());
    LOG_WARN << "no route from " << node.name << " to node " << dst.node;
    for (auto& pkt : scratch) shard.pool.release(std::move(pkt.payload));
    scratch.clear();
    return;
  }
  hop->send_train(scratch);
}

Network::Stats Network::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    total.sent += shard.stats.sent;
    total.delivered += shard.stats.delivered;
    total.dropped_no_route += shard.stats.dropped_no_route;
    total.dropped_no_socket += shard.stats.dropped_no_socket;
    total.end_to_end_delay_ms.merge_from(shard.stats.end_to_end_delay_ms);
  }
  return total;
}

void Network::flush_telemetry() {
  // Post-run, single-threaded: merged net/* counters go to partition 0's
  // hub; each link flushes into its own source partition's hub.
  auto* hub = sims_[0]->telemetry();
  if (hub == nullptr) return;
  const Stats total = stats();
  auto& m = hub->metrics();
  m.set(m.gauge("net/sent"), static_cast<double>(total.sent));
  m.set(m.gauge("net/delivered"), static_cast<double>(total.delivered));
  m.set(m.gauge("net/dropped_no_route"),
        static_cast<double>(total.dropped_no_route));
  m.set(m.gauge("net/dropped_no_socket"),
        static_cast<double>(total.dropped_no_socket));
  m.set(m.gauge("net/e2e_delay_ms_p50"),
        total.end_to_end_delay_ms.percentile(50));
  m.set(m.gauge("net/e2e_delay_ms_p95"),
        total.end_to_end_delay_ms.percentile(95));
  for (auto& node : nodes_) {
    for (auto& link : node->out_links) link->flush_telemetry();
  }
}

const std::string& Network::node_name(NodeId id) const {
  return nodes_.at(id)->name;
}

Link* Network::find_link(NodeId from, NodeId to) {
  for (auto& link : nodes_.at(from)->out_links) {
    if (link->to_node() == to) return link.get();
  }
  return nullptr;
}

void Network::partition(NodeId a, NodeId b) {
  for (auto& link : nodes_.at(a)->out_links) {
    if (link->to_node() == b) link->set_up(false);
  }
  for (auto& link : nodes_.at(b)->out_links) {
    if (link->to_node() == a) link->set_up(false);
  }
}

void Network::heal(NodeId a, NodeId b) {
  for (auto& link : nodes_.at(a)->out_links) {
    if (link->to_node() == b) link->set_up(true);
  }
  for (auto& link : nodes_.at(b)->out_links) {
    if (link->to_node() == a) link->set_up(true);
  }
}

void Network::isolate(NodeId node) {
  for (auto& link : nodes_.at(node)->out_links) link->set_up(false);
  for (auto& other : nodes_) {
    for (auto& link : other->out_links) {
      if (link->to_node() == node) link->set_up(false);
    }
  }
}

void Network::set_links_touching(NodeId node, std::uint32_t p, bool up) {
  Node& target = *nodes_.at(node);
  if (target.partition == p) {
    for (auto& link : target.out_links) link->set_up(up);
  }
  for (auto& other : nodes_) {
    if (other->id == node || other->partition != p) continue;
    for (auto& link : other->out_links) {
      if (link->to_node() == node) link->set_up(up);
    }
  }
}

void Network::rejoin(NodeId node) {
  for (auto& link : nodes_.at(node)->out_links) link->set_up(true);
  for (auto& other : nodes_) {
    for (auto& link : other->out_links) {
      if (link->to_node() == node) link->set_up(true);
    }
  }
}

}  // namespace hyms::net
