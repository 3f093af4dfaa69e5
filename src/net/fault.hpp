#pragma once

// Deterministic fault injection (chaos engineering for the simulated
// internetwork). A FaultPlan is a sim-time-ordered script of fault events —
// link flaps, bandwidth collapses, burst-loss episodes, node partitions,
// server crash/restart — and a FaultInjector schedules the script against
// the simulator. Plans can be written by hand or generated pseudo-randomly
// from a seed (make_random_plan), so every chaos run is reproducible and
// regression-testable. Injected faults are exported to telemetry as spans
// on a "faults" track.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/loss.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace hyms::net {

enum class FaultKind : std::uint8_t {
  kLinkDown,           // both direction links between a<->b go down
  kLinkUp,             // ... and back up
  kBandwidthCollapse,  // both links a<->b: bandwidth *= fraction (override)
  kBandwidthRestore,   // pop the override
  kBurstLossBegin,     // both links a<->b: Gilbert–Elliott loss (override)
  kBurstLossEnd,       // pop the override
  kPartitionNode,      // every link touching node `a` goes down
  kHealNode,           // ... and back up
  kServerCrash,        // registered server `server` crashes
  kServerRestart,      // ... and restarts
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scripted fault. Which fields matter depends on `kind`; unused fields
/// are ignored.
struct FaultEvent {
  Time at;
  FaultKind kind = FaultKind::kLinkDown;
  NodeId a = kNoNode;  // link endpoint / partitioned node
  NodeId b = kNoNode;  // link endpoint
  double fraction = 0.1;  // bandwidth collapse factor (0 < fraction <= 1)
  GilbertElliottLoss::Params burst;  // burst-loss episode parameters
  int server = -1;                   // index into registered servers
};

/// A sim-time-ordered script of fault events.
struct FaultPlan {
  std::vector<FaultEvent> events;

  void add(FaultEvent event);
  /// Sort events by time (stable: insertion order breaks ties).
  void normalize();
  [[nodiscard]] bool empty() const { return events.empty(); }
  /// Human-readable one-line-per-event rendering (for logs / debugging).
  [[nodiscard]] std::string summary() const;
};

/// Knobs for make_random_plan(). Outages are always paired (every down has
/// a matching up within the horizon), overrides never overlap on one link,
/// and every crash has a matching restart — so a generated plan can never
/// wedge the system permanently.
struct ChaosProfile {
  Time horizon = Time::sec(20);       // faults land in [start, horizon]
  Time start = Time::sec(1);          // earliest fault instant
  int max_faults = 4;                 // episodes to attempt (>=1)
  Time min_outage = Time::msec(250);  // episode duration bounds
  Time max_outage = Time::sec(5);
  double min_fraction = 0.05;  // bandwidth collapse factor bounds
  double max_fraction = 0.5;
  // Relative weights of each episode kind (0 disables a kind).
  double w_link_flap = 4.0;
  double w_bandwidth = 2.0;
  double w_burst_loss = 2.0;
  double w_partition = 1.0;
  double w_server_crash = 1.0;
};

/// Generate a reproducible randomized plan: same (seed, profile, targets) →
/// identical plan. `link_targets` are the (a, b) node pairs eligible for
/// link-level faults; `partition_targets` the nodes eligible for whole-node
/// partitions; `server_count` the number of crashable servers registered
/// with the injector (0 disables crash episodes).
[[nodiscard]] FaultPlan make_random_plan(
    std::uint64_t seed, const ChaosProfile& profile,
    const std::vector<std::pair<NodeId, NodeId>>& link_targets,
    const std::vector<NodeId>& partition_targets, int server_count);

/// Schedules a FaultPlan against the simulator and applies each event to the
/// network (and registered servers) when its time comes. Telemetry: one span
/// per episode on the "faults" track, instants for one-shot events, and
/// fault/* gauges from flush_telemetry().
///
/// Partition-aware: on a partitioned Network each event is armed as one
/// thunk per partition (pre-run, in plan order — the slab kernel's
/// equal-timestamp schedule order then matches the sequential kernel), and
/// every partition applies only its own slice at the event's sim time — a
/// link direction flips on its source partition, a server crashes on its
/// node's partition, and every partition's QoE hub notes the world event so
/// flight-recorder dumps stay byte-identical to the sequential kernel.
/// Injection counters are sharded per partition and summed by stats().
class FaultInjector {
 public:
  explicit FaultInjector(Network& net);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Register a crashable server (e.g. MultimediaServer::crash/restart
  /// bound through std::function to keep net/ below server/ in the layer
  /// graph). Returns the server index FaultEvent::server refers to.
  /// `node`, when given, homes the crash/restart thunks on the server
  /// node's partition; without it they run on partition 0 (fine on a
  /// sequential kernel, required knowledge on a partitioned one).
  int register_server(std::string name, NodeId node,
                      std::function<void()> crash,
                      std::function<void()> restart);
  int register_server(std::string name, std::function<void()> crash,
                      std::function<void()> restart) {
    return register_server(std::move(name), kNoNode, std::move(crash),
                           std::move(restart));
  }

  /// Schedule every event of `plan` (copied). May be called once per run;
  /// cancel() drops anything still pending. Must be called before
  /// ParallelExec::run_until on a partitioned network (arming mid-run would
  /// race the partition threads).
  void arm(const FaultPlan& plan);
  void cancel();

  struct Stats {
    std::int64_t injected = 0;  // events applied
    std::int64_t link_flaps = 0;
    std::int64_t bandwidth_collapses = 0;
    std::int64_t burst_episodes = 0;
    std::int64_t partitions = 0;
    std::int64_t server_crashes = 0;
  };
  /// Counters summed across partition shards.
  [[nodiscard]] Stats stats() const;

  /// Snapshot counters into the telemetry hub (fault/* gauges).
  void flush_telemetry();

 private:
  struct ServerHooks {
    std::string name;
    NodeId node = kNoNode;
    std::function<void()> crash;
    std::function<void()> restart;
  };

  /// Apply partition `p`'s slice of `event`. Exactly one partition (the
  /// event's primary) owns the injection counters and log line.
  void apply(const FaultEvent& event, std::uint32_t p);
  [[nodiscard]] std::uint32_t primary_partition(const FaultEvent& event) const;
  void for_link_pair_on(NodeId a, NodeId b, std::uint32_t p,
                        const std::function<void(Link&)>& fn);

  Network& net_;
  std::vector<ServerHooks> servers_;
  std::vector<std::unique_ptr<sim::Timer>> pending_;  // per (event, partition)
  std::vector<Stats> stats_shards_;  // indexed by partition; summed by stats()

  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_episode_[5] = {};  // span name per episode family
  bool span_open_ = false;  // SpanTracer tracks are strictly nested; only
                            // trace non-overlapping episodes as spans (and
                            // only on a single-kernel run)
};

}  // namespace hyms::net
