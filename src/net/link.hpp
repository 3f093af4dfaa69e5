#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/loss.hpp"
#include "net/packet.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace hyms::net {

/// Static configuration of one unidirectional link.
struct LinkParams {
  double bandwidth_bps = 10e6;          // serialization rate
  Time propagation = Time::msec(5);     // fixed one-way latency
  std::size_t queue_capacity_bytes = 64 * 1024;  // drop-tail buffer
  /// Extra per-packet delay variance (models OS scheduling + downstream
  /// equipment): packet gets max(0, N(jitter_mean, jitter_stddev)).
  Time jitter_mean = Time::zero();
  Time jitter_stddev = Time::zero();
  std::shared_ptr<LossModel> loss;      // optional random loss process
  /// Bit-error injection: probability that a traversing packet has one
  /// random payload byte flipped (transports must detect or tolerate it).
  double corruption_prob = 0.0;
  /// Batched delivery: admitted packets go onto a per-link arrival calendar
  /// drained by a single chained event. false selects the per-packet
  /// reference delivery, two scheduled events per packet (a dequeue at
  /// serialization finish, then the arrival). One admission routine decides
  /// every packet's fate, timestamps and stats either way, so only the event
  /// count differs; the flag is the reference side of the batching
  /// differential tests. Applies to packets offered after a set_params()
  /// call, so a link may switch mid-run in either direction.
  bool batching = true;
};

/// One unidirectional link: drop-tail queue + serialization at bandwidth_bps
/// + propagation + optional jitter and random loss. Queueing delay emerges
/// from the busy-until horizon, so congestion (e.g. cross traffic) produces
/// exactly the delay/jitter/loss behaviour the paper's recovery mechanisms
/// are designed to absorb.
class Link {
 public:
  using DeliverFn = std::function<void(Packet&&)>;

  /// `sim` is the source endpoint's simulator, which runs admission.
  /// `deliver_sim` is the far endpoint's, which runs the arrival chain.
  /// `pool`, if given, receives the payload buffers of packets the link
  /// drops, so drop-heavy runs recycle allocations just like delivered ones.
  ///
  /// A non-null `exec` makes the link a cross-partition *conduit* from
  /// partition `src_partition` to a different `dst_partition`: admission
  /// (queue, loss, serialization, jitter — every RNG draw and timestamp)
  /// still runs on `sim` exactly as in the local batched path, but admitted
  /// packets are mailed through `exec`'s post() and parked in the arrival
  /// calendar at the next executor barrier; the chained delivery event then
  /// runs on `deliver_sim`. Requires params().propagation >= the executor
  /// lookahead for the lifetime of the link — a push_override() must not
  /// lower a cross link's propagation below it (post() throws when the
  /// contract breaks). Conduits always deliver through the calendar (the
  /// per-packet reference delivery would schedule onto the far simulator
  /// from the source thread), and skip per-event tracer emission (the trace
  /// track lives in the source partition's hub; counters still flush
  /// post-run).
  /// An ordinary link passes its own simulator twice and a null `exec`.
  Link(sim::Simulator& sim, sim::Simulator& deliver_sim,
       sim::ParallelExec* exec, std::uint32_t src_partition,
       std::uint32_t dst_partition, std::string name, LinkParams params,
       NodeId to_node, DeliverFn deliver, util::Rng rng,
       PayloadPool* pool = nullptr);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  [[nodiscard]] bool is_conduit() const { return exec_ != nullptr; }

  /// Offer a packet to the link. May drop (queue full or loss model); on
  /// success schedules delivery at the far end.
  void transmit(Packet&& pkt);

  /// Offer a back-to-back burst. Serialization-finish and arrival instants
  /// are computed analytically per packet from the queue state, loss/queue
  /// decisions are applied in offer order, and survivors are delivered from
  /// ~one chained arrival event carrying per-packet timestamps — collapsing
  /// 2k events per k-packet burst to ~2. Consumes the vector (packets are
  /// moved out); with batching disabled each survivor gets the reference
  /// delivery's two events.
  void send_train(std::vector<Packet>& train);

  [[nodiscard]] NodeId to_node() const { return to_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const LinkParams& params() const { return params_; }

  /// Replace link parameters mid-run (e.g. for step-change experiments).
  /// Takes effect for packets offered after the call; packets already
  /// accepted keep the serialization schedule they were admitted under (the
  /// busy-until horizon is not recomputed).
  void set_params(LinkParams params) { params_ = std::move(params); }

  /// Administrative up/down state (fault injection). While down the link
  /// drops every packet offered to it (counted in Stats::dropped_down);
  /// packets already admitted to the arrival calendar — or queued for
  /// serialization — were "on the wire" and still deliver, so the batched
  /// train calendar needs no flushing and batched/reference deliveries stay
  /// behaviourally identical under faults.
  void set_up(bool up);
  [[nodiscard]] bool up() const { return up_; }

  /// Scoped parameter overrides for fault episodes (bandwidth collapse,
  /// burst-loss). push_override() installs `params` and saves the current
  /// ones; pop_override() restores the params saved by the matching push.
  /// Strictly LIFO: overlapping, non-nested episodes on the same link must
  /// be serialized by the caller (FaultPlan generators do).
  void push_override(LinkParams params);
  void pop_override();
  [[nodiscard]] std::size_t override_depth() const {
    return override_stack_.size();
  }

  struct Stats {
    std::int64_t offered = 0;
    std::int64_t delivered = 0;
    std::int64_t dropped_queue = 0;
    std::int64_t dropped_loss = 0;
    std::int64_t dropped_down = 0;  // offered while administratively down
    std::int64_t corrupted = 0;
    std::int64_t bytes_delivered = 0;
    util::Sampler queueing_delay_ms;  // time spent waiting for serialization
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Snapshot counters into the telemetry hub's metric registry
  /// (link/<name>/* family). No-op without a hub.
  void flush_telemetry();

 private:
  /// One admitted packet awaiting calendar delivery.
  struct PendingArrival {
    Packet pkt;
    Time arrival;
    std::int64_t offer_index;  // Stats::offered at its offer: breaks ties
  };
  /// One serialization in progress: queued_bytes_ drops by `size` at
  /// `finish`. Drained lazily (at offers and chain firings) instead of
  /// through a dedicated dequeue event per packet.
  struct TransitEntry {
    Time finish;
    std::size_t size;
  };

  [[nodiscard]] Time serialization_time(std::size_t bytes) const;
  /// Count one refused packet in `counter` (a Stats drop class), log it as
  /// `what`, trace the `instant` and recycle its payload.
  void drop(Packet&& pkt, std::int64_t& counter, const char* what,
            telemetry::NameId instant);
  /// The link's one admission routine, at sim_.now(): the down check, the
  /// queue check and loss draw, closed-form serialization finish, corruption
  /// and jitter. A survivor then goes to the mailbox (conduit), the calendar
  /// (batched) or the reference delivery's two events.
  void offer(Packet&& pkt);
  /// Sorted insert into the arrival calendar by (arrival, offer index),
  /// re-arming the chain when the head changes. Shared by the local batched
  /// path (at offer time) and the conduit path (at the executor barrier).
  void insert_calendar(PendingArrival&& item);
  /// The conduit path: mail the admitted packets buffered by offer() through
  /// the executor; the thunk parks them in the calendar at the next barrier.
  void flush_mailbox();
  /// Runs at the executor barrier (no partition executing): park mailed
  /// packets in the calendar and arm the chain on the delivery simulator.
  void accept_mailed(std::vector<PendingArrival>&& items);
  /// Fire of the chained arrival event: deliver every calendar item whose
  /// time has come, running ahead of the clock (advance_now per item) while
  /// no other simulator event intervenes, then re-arm at the next arrival.
  void fire_chain();
  /// Cancel + re-arm the chain timer at the calendar head's arrival.
  void arm_chain();
  /// Retire transit entries with finish <= t (queue-depth bookkeeping).
  void drain_transit(Time t);

  sim::Simulator& sim_;
  std::string name_;
  LinkParams params_;
  NodeId to_;
  DeliverFn deliver_;
  util::Rng rng_;
  PayloadPool* pool_ = nullptr;

  Time busy_until_ = Time::zero();
  std::size_t queued_bytes_ = 0;
  bool up_ = true;
  std::vector<LinkParams> override_stack_;  // saved params, LIFO
  Stats stats_;

  // Calendar state: arrival calendar (sorted by arrival, then offer index;
  // head_ indexes the first undelivered item) and the transit queue.
  std::vector<PendingArrival> calendar_;
  std::size_t calendar_head_ = 0;
  std::vector<TransitEntry> transit_;
  std::size_t transit_head_ = 0;

  // State of a conduit (exec_ is null for ordinary links, whose deliver_sim_
  // is sim_). deliver_sim_ runs the calendar's chain timer; mailbox_ buffers
  // admissions within one transmit/send_train call until flush_mailbox()
  // posts them.
  sim::Simulator& deliver_sim_;
  sim::ParallelExec* exec_;
  std::uint32_t src_partition_;
  std::uint32_t dst_partition_;
  std::vector<PendingArrival> mailbox_;
  sim::Timer chain_timer_{deliver_sim_};

  // Trace ids, interned once at construction when a telemetry hub is
  // installed on the simulator (unused otherwise).
  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_queue_bytes_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_dropped_queue_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_dropped_loss_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_dropped_down_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_train_ = telemetry::kInvalidTraceId;
};

}  // namespace hyms::net
