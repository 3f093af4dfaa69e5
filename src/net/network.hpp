#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace hyms::net {

class Network;

/// UDP-like unreliable datagram endpoint. Obtained from Network::bind; the
/// receive callback fires in simulation time as packets arrive (possibly
/// reordered, duplicated-free, lossy — exactly what RTP must cope with).
/// The packet is handed over by rvalue: a receiver that keeps the wire bytes
/// moves `payload` out and owns the buffer from then on (returning it to
/// the node's PayloadPool when done); the network recycles whatever payload
/// is left once the callback returns. A callback taking `const Packet&`
/// only reads, and the buffer is recycled after it.
class DatagramSocket {
 public:
  using ReceiveFn = std::function<void(Packet&&)>;

  DatagramSocket(Network& net, Endpoint local) : net_(net), local_(local) {}
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  void send(Endpoint dst, Payload payload);
  void set_receiver(ReceiveFn fn) { on_receive_ = std::move(fn); }
  [[nodiscard]] Endpoint local() const { return local_; }

 private:
  friend class Network;
  void deliver(Packet&& pkt) {
    if (on_receive_) on_receive_(std::move(pkt));
  }

  Network& net_;
  Endpoint local_;
  ReceiveFn on_receive_;
};

/// The emulated internetwork: hosts and routers joined by Links, static
/// shortest-path (hop count) routing, and a datagram service on top. All of
/// the paper's traffic — scenario download, media streams, RTCP feedback,
/// service control — crosses this substrate.
///
/// Partition-aware mode: constructed over one Simulator per partition (plus
/// the ParallelExec that advances them), every node is assigned a partition
/// and every link whose endpoints straddle two partitions becomes a
/// *conduit* — admission runs on the source partition, admitted packets are
/// mailed through the executor's canonical (earliest, src partition, seq)
/// merge order, and delivery fires on the destination partition. Mutable
/// per-packet state (stats, payload pool, packet ids, socket memo) is
/// sharded per partition so concurrent windows share nothing; results are
/// byte-identical to the same topology on one sequential kernel.
class Network {
 public:
  explicit Network(sim::Simulator& sim)
      : Network(std::vector<sim::Simulator*>{&sim}, nullptr) {}
  /// Partition-aware mode: sims[p] is partition p's kernel. `exec` is
  /// required whenever more than one partition exists.
  Network(std::vector<sim::Simulator*> sims, sim::ParallelExec* exec);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId add_host(std::string name);
  NodeId add_router(std::string name);

  /// Home `node` on partition `p`. Must be called before any connect()
  /// involving the node (links are homed — and conduits created — from the
  /// endpoint partitions in force at connect time). Nodes default to
  /// partition 0.
  void set_node_partition(NodeId node, std::uint32_t p);
  [[nodiscard]] std::uint32_t partition_of(NodeId node) const {
    return nodes_.at(node)->partition;
  }
  [[nodiscard]] std::size_t partition_count() const { return sims_.size(); }
  /// Minimum propagation of any cross-partition (conduit) link — the safe
  /// ParallelExec lookahead for this topology. Links inside one partition
  /// impose no constraint: their traffic never crosses a thread boundary.
  /// Time::max() if nothing crosses; Time::zero() when a zero-latency link
  /// crosses (degenerate single-timestamp windows).
  [[nodiscard]] Time cross_lookahead() const;
  /// Compute routes eagerly. Partitioned runs must call this (or send once)
  /// before ParallelExec::run_until: the lazy first-send rebuild would
  /// otherwise race between partition threads.
  void finalize_routes() {
    if (routes_dirty_) compute_routes();
  }

  /// Duplex connect with symmetric parameters.
  std::pair<Link*, Link*> connect(NodeId a, NodeId b, const LinkParams& both);
  /// Duplex connect with per-direction parameters (a->b, b->a). Throws
  /// std::invalid_argument — leaving the network untouched — on bad node
  /// ids or a negative propagation delay.
  std::pair<Link*, Link*> connect(NodeId a, NodeId b, const LinkParams& ab,
                                  const LinkParams& ba);

  /// Bind a datagram socket; port 0 picks an ephemeral port.
  DatagramSocket& bind(NodeId host, Port port, DatagramSocket::ReceiveFn fn);
  void unbind(Endpoint ep);

  /// Inject a datagram from src (bypasses socket lookup on the sender side).
  void send(Endpoint src, Endpoint dst, Payload payload);

  /// Inject a back-to-back burst from src to one destination: routes once,
  /// stamps sequential packet ids (identical ids and order to k send()
  /// calls), and hands the whole train to the first-hop link's batched path
  /// — or, for node-local traffic, delivers each packet in order as send()
  /// would. Consumes the payloads; the caller's vector is cleared but keeps
  /// its capacity.
  void send_train(Endpoint src, Endpoint dst, std::vector<Payload>& payloads);

  /// Fault injection: take the links touching `node` (both directions)
  /// down or back up, but only those whose SOURCE endpoint is homed on
  /// partition `p` (a direction's mutable state is owned by its source
  /// partition). Applying this on every partition at one sim time flips
  /// every link touching the node — a whole-node partition — without
  /// cross-thread link writes; that is how FaultInjector runs node
  /// partitions. Routing tables are untouched: packets keep being forwarded
  /// into a downed link and are dropped there, exactly like a severed cable.
  void set_links_touching(NodeId node, std::uint32_t p, bool up);

  /// Partition 0's simulator (the only one in single-kernel mode).
  [[nodiscard]] sim::Simulator& sim() { return *sims_[0]; }
  /// Partition `p`'s simulator; fault thunks are armed per partition here.
  [[nodiscard]] sim::Simulator& sim_of_partition(std::uint32_t p) {
    return *sims_.at(p);
  }
  /// The simulator of the partition `node` is homed on. Components bind
  /// their clocks/timers here so they execute on their node's partition.
  [[nodiscard]] sim::Simulator& sim_at(NodeId node) {
    return *sims_[nodes_.at(node)->partition];
  }
  /// Buffer pool for datagram payloads. High-rate senders (RTP) acquire
  /// their wire buffers here; the network returns every payload it finishes
  /// with (delivered or dropped), closing the recycling loop. The
  /// node-qualified overload returns the pool of the node's partition —
  /// components on partitioned networks must use it so recycling never
  /// crosses a thread boundary.
  [[nodiscard]] PayloadPool& payload_pool() { return shards_[0].pool; }
  [[nodiscard]] PayloadPool& payload_pool(NodeId node) {
    return shards_[nodes_.at(node)->partition].pool;
  }
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] Link* find_link(NodeId from, NodeId to);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  struct Stats {
    std::int64_t sent = 0;
    std::int64_t delivered = 0;
    std::int64_t dropped_no_route = 0;
    std::int64_t dropped_no_socket = 0;
  };
  /// Counters summed across partition shards.
  [[nodiscard]] Stats stats() const;

  /// Snapshot network + per-link counters into the telemetry hub (net/* and
  /// link/<name>/* metric families). No-op without a hub.
  void flush_telemetry();

 private:
  struct Node {
    NodeId id;
    std::string name;
    bool is_host;
    std::uint32_t partition = 0;
    std::vector<std::unique_ptr<Link>> out_links;
    /// Flat routing table indexed by destination NodeId (nullptr = no
    /// route), rebuilt by compute_routes(); one indexed load per hop instead
    /// of a map lookup.
    std::vector<Link*> next_hop;
    std::map<Port, std::unique_ptr<DatagramSocket>> sockets;
    Port next_ephemeral = 49152;
  };
  /// Per-partition mutable packet-path state. Each field is touched only by
  /// the thread running its partition (or post-run), so concurrent windows
  /// never contend: sent/drop counters and packet ids follow the node the
  /// operation runs on, pools recycle within their partition, and the
  /// socket memo caches only same-partition resolutions.
  struct Shard {
    Stats stats;
    /// Every delivered datagram's delay; flush_telemetry merges the shards'
    /// samples for the exact net/e2e_delay_ms percentiles.
    util::Sampler end_to_end_delay_ms;
    PayloadPool pool;
    std::uint64_t next_packet_id = 1;
    std::vector<Packet> train_scratch;  // reused across send_train calls
    // Memo of the last destination-socket resolution: media flows hammer
    // one endpoint, so this short-circuits the per-packet port-map lookup.
    // Invalidated on bind/unbind.
    NodeId cached_sock_node = kNoNode;
    Port cached_sock_port = 0;
    DatagramSocket* cached_sock = nullptr;
  };

  NodeId add_node(std::string name, bool is_host);
  void compute_routes();
  void deliver_at(NodeId node, Packet&& pkt);
  void deliver_local(Node& node, Packet&& pkt);
  [[nodiscard]] DatagramSocket* socket_for(Node& node, Port port);
  [[nodiscard]] Shard& shard_of(NodeId node) {
    return shards_[nodes_[node]->partition];
  }

  std::vector<sim::Simulator*> sims_;
  sim::ParallelExec* exec_ = nullptr;
  util::Rng rng_;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<Node>> nodes_;
  bool routes_dirty_ = true;
  std::uint64_t next_link_rng_ = 1;
};

}  // namespace hyms::net
