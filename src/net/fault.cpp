#include "net/fault.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "util/log.hpp"

namespace hyms::net {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kBandwidthCollapse: return "bandwidth_collapse";
    case FaultKind::kBandwidthRestore: return "bandwidth_restore";
    case FaultKind::kBurstLossBegin: return "burst_loss_begin";
    case FaultKind::kBurstLossEnd: return "burst_loss_end";
    case FaultKind::kPartitionNode: return "partition_node";
    case FaultKind::kHealNode: return "heal_node";
    case FaultKind::kServerCrash: return "server_crash";
    case FaultKind::kServerRestart: return "server_restart";
  }
  return "?";
}

void FaultPlan::add(FaultEvent event) { events.push_back(std::move(event)); }

void FaultPlan::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
}

std::string FaultPlan::summary() const {
  std::ostringstream out;
  for (const FaultEvent& e : events) {
    out << e.at.to_ms() << "ms " << to_string(e.kind);
    if (e.a != kNoNode) out << " a=" << e.a;
    if (e.b != kNoNode) out << " b=" << e.b;
    if (e.kind == FaultKind::kBandwidthCollapse) out << " x" << e.fraction;
    if (e.server >= 0) out << " server=" << e.server;
    out << "\n";
  }
  return out.str();
}

namespace {

/// Episode family of a begin-kind (index into the injector's span names).
int family_of(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return 0;
    case FaultKind::kBandwidthCollapse: return 1;
    case FaultKind::kBurstLossBegin: return 2;
    case FaultKind::kPartitionNode: return 3;
    case FaultKind::kServerCrash: return 4;
    default: return -1;
  }
}

FaultKind end_of(FaultKind begin) {
  switch (begin) {
    case FaultKind::kLinkDown: return FaultKind::kLinkUp;
    case FaultKind::kBandwidthCollapse: return FaultKind::kBandwidthRestore;
    case FaultKind::kBurstLossBegin: return FaultKind::kBurstLossEnd;
    case FaultKind::kPartitionNode: return FaultKind::kHealNode;
    case FaultKind::kServerCrash: return FaultKind::kServerRestart;
    default: return begin;
  }
}

}  // namespace

FaultPlan make_random_plan(
    std::uint64_t seed, const ChaosProfile& profile,
    const std::vector<std::pair<NodeId, NodeId>>& link_targets,
    const std::vector<NodeId>& partition_targets, int server_count) {
  util::Rng rng(seed ^ 0xFA017EC7ULL);
  FaultPlan plan;

  struct Choice {
    FaultKind begin;
    double weight;
  };
  std::vector<Choice> choices;
  if (!link_targets.empty()) {
    if (profile.w_link_flap > 0)
      choices.push_back({FaultKind::kLinkDown, profile.w_link_flap});
    if (profile.w_bandwidth > 0)
      choices.push_back({FaultKind::kBandwidthCollapse, profile.w_bandwidth});
    if (profile.w_burst_loss > 0)
      choices.push_back({FaultKind::kBurstLossBegin, profile.w_burst_loss});
  }
  if (!partition_targets.empty() && profile.w_partition > 0)
    choices.push_back({FaultKind::kPartitionNode, profile.w_partition});
  if (server_count > 0 && profile.w_server_crash > 0)
    choices.push_back({FaultKind::kServerCrash, profile.w_server_crash});
  if (choices.empty() || profile.max_faults < 1) return plan;

  double total_weight = 0;
  for (const Choice& c : choices) total_weight += c.weight;

  // Episodes are laid out sequentially (never overlapping): LIFO parameter
  // overrides stay paired, telemetry spans stay non-nested, and a generated
  // plan can never leave the system permanently impaired.
  const double window_s =
      std::max(0.0, (profile.horizon - profile.start).to_seconds());
  const double mean_gap_s = window_s / (2.0 * profile.max_faults);
  Time cursor = profile.start;
  for (int i = 0; i < profile.max_faults; ++i) {
    double x = rng.uniform() * total_weight;
    FaultKind begin = choices.back().begin;
    for (const Choice& c : choices) {
      if (x < c.weight) {
        begin = c.begin;
        break;
      }
      x -= c.weight;
    }
    const Time gap = Time::seconds(rng.uniform(0.0, 2.0 * mean_gap_s));
    const Time duration = Time::seconds(
        rng.uniform(profile.min_outage.to_seconds(),
                    profile.max_outage.to_seconds()));
    const Time begin_at = cursor + gap;
    if (begin_at + duration > profile.horizon) break;
    cursor = begin_at + duration;

    FaultEvent on;
    on.at = begin_at;
    on.kind = begin;
    switch (begin) {
      case FaultKind::kLinkDown:
      case FaultKind::kBandwidthCollapse:
      case FaultKind::kBurstLossBegin: {
        const auto& pair = link_targets[rng.below(link_targets.size())];
        on.a = pair.first;
        on.b = pair.second;
        if (begin == FaultKind::kBandwidthCollapse) {
          on.fraction =
              rng.uniform(profile.min_fraction, profile.max_fraction);
        } else if (begin == FaultKind::kBurstLossBegin) {
          // Heavy episode: mostly-bad channel with bursty recovery.
          on.burst.p_good_to_bad = 0.01;
          on.burst.p_bad_to_good = rng.uniform(0.02, 0.1);
          on.burst.loss_good = 0.0;
          on.burst.loss_bad = rng.uniform(0.3, 0.8);
        }
        break;
      }
      case FaultKind::kPartitionNode:
        on.a = partition_targets[rng.below(partition_targets.size())];
        break;
      case FaultKind::kServerCrash:
        on.server = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(server_count)));
        break;
      default:
        break;
    }
    FaultEvent off = on;
    off.at = begin_at + duration;
    off.kind = end_of(begin);
    plan.add(on);
    plan.add(off);
  }
  plan.normalize();
  return plan;
}

FaultInjector::FaultInjector(Network& net)
    : net_(net), stats_shards_(net.partition_count()) {
  if (auto* hub = net_.sim().telemetry()) {
    auto& tr = hub->tracer();
    trace_track_ = tr.track("faults");
    n_episode_[0] = tr.name("link_down");
    n_episode_[1] = tr.name("bandwidth_collapse");
    n_episode_[2] = tr.name("burst_loss");
    n_episode_[3] = tr.name("partition");
    n_episode_[4] = tr.name("server_crash");
  }
}

int FaultInjector::register_server(std::string name, NodeId node,
                                   std::function<void()> crash,
                                   std::function<void()> restart) {
  servers_.push_back(ServerHooks{std::move(name), node, std::move(crash),
                                 std::move(restart)});
  return static_cast<int>(servers_.size()) - 1;
}

std::uint32_t FaultInjector::primary_partition(
    const FaultEvent& event) const {
  switch (event.kind) {
    case FaultKind::kServerCrash:
    case FaultKind::kServerRestart:
      if (event.server >= 0 &&
          event.server < static_cast<int>(servers_.size())) {
        const NodeId node =
            servers_[static_cast<std::size_t>(event.server)].node;
        if (node != kNoNode) return net_.partition_of(node);
      }
      return 0;
    default:
      if (event.a != kNoNode) return net_.partition_of(event.a);
      return 0;
  }
}

void FaultInjector::arm(const FaultPlan& plan) {
  // One thunk per (event, partition), armed pre-run in plan order: every
  // partition applies its slice of the event at the same sim time, in the
  // same equal-timestamp schedule order the sequential kernel would use.
  const auto partitions =
      static_cast<std::uint32_t>(net_.partition_count());
  pending_.reserve(pending_.size() + plan.events.size() * partitions);
  for (const FaultEvent& event : plan.events) {
    for (std::uint32_t p = 0; p < partitions; ++p) {
      auto& sim = net_.sim_of_partition(p);
      const Time at = std::max(event.at, sim.now());
      pending_.push_back(std::make_unique<sim::Timer>(sim));
      pending_.back()->arm_at(at, [this, event, p] { apply(event, p); });
    }
  }
}

void FaultInjector::cancel() { pending_.clear(); }

void FaultInjector::for_link_pair_on(NodeId a, NodeId b, std::uint32_t p,
                                     const std::function<void(Link&)>& fn) {
  // A link direction's mutable state is owned by its source partition.
  if (net_.partition_of(a) == p) {
    if (Link* ab = net_.find_link(a, b)) fn(*ab);
  }
  if (net_.partition_of(b) == p) {
    if (Link* ba = net_.find_link(b, a)) fn(*ba);
  }
}

void FaultInjector::apply(const FaultEvent& event, std::uint32_t p) {
  auto& sim = net_.sim_of_partition(p);
  const bool primary = primary_partition(event) == p;
  Stats& stats = stats_shards_[p];
  if (primary) {
    ++stats.injected;
    LOG_DEBUG << "fault @" << sim.now().to_ms() << "ms: "
              << to_string(event.kind);
  }

  const int family = family_of(event.kind);
  auto* hub = sim.telemetry();
  if (hub != nullptr && trace_track_ != telemetry::kInvalidTraceId &&
      net_.partition_count() == 1) {
    // Episode spans only on the single-kernel run: the span tracer state is
    // injector-global, which partition threads must not share.
    auto& tr = hub->tracer();
    if (family >= 0 && !span_open_) {
      tr.begin(trace_track_, n_episode_[family], sim.now());
      span_open_ = true;
    } else if (family < 0 && span_open_) {
      tr.end(trace_track_, sim.now());
      span_open_ = false;
    }
  }
  if (hub != nullptr) {
    // World-scoped flight-recorder entry, noted on EVERY partition's hub:
    // a session seals its black box against its own partition's world ring,
    // which must therefore read the same everywhere (and the same as the
    // sequential kernel's single ring).
    std::string text = std::string("fault: ") + to_string(event.kind);
    if (event.kind == FaultKind::kServerCrash ||
        event.kind == FaultKind::kServerRestart) {
      if (event.server >= 0 &&
          event.server < static_cast<int>(servers_.size())) {
        text += " " + servers_[static_cast<std::size_t>(event.server)].name;
      }
    } else if (event.a != kNoNode) {
      text += " a=" + std::to_string(event.a);
      if (event.b != kNoNode) text += " b=" + std::to_string(event.b);
    }
    hub->qoe().note_world_event(sim.now(), text);
  }

  switch (event.kind) {
    case FaultKind::kLinkDown:
      if (primary) ++stats.link_flaps;
      for_link_pair_on(event.a, event.b, p,
                       [](Link& l) { l.set_up(false); });
      break;
    case FaultKind::kLinkUp:
      for_link_pair_on(event.a, event.b, p, [](Link& l) { l.set_up(true); });
      break;
    case FaultKind::kBandwidthCollapse:
      if (primary) ++stats.bandwidth_collapses;
      for_link_pair_on(event.a, event.b, p, [&event](Link& l) {
        LinkParams params = l.params();
        params.bandwidth_bps *= event.fraction;
        l.push_override(std::move(params));
      });
      break;
    case FaultKind::kBandwidthRestore:
      for_link_pair_on(event.a, event.b, p,
                       [](Link& l) { l.pop_override(); });
      break;
    case FaultKind::kBurstLossBegin:
      if (primary) ++stats.burst_episodes;
      for_link_pair_on(event.a, event.b, p, [&event](Link& l) {
        LinkParams params = l.params();
        params.loss = std::make_shared<GilbertElliottLoss>(event.burst);
        l.push_override(std::move(params));
      });
      break;
    case FaultKind::kBurstLossEnd:
      for_link_pair_on(event.a, event.b, p,
                       [](Link& l) { l.pop_override(); });
      break;
    case FaultKind::kPartitionNode:
      if (primary) ++stats.partitions;
      net_.set_links_touching(event.a, p, /*up=*/false);
      break;
    case FaultKind::kHealNode:
      net_.set_links_touching(event.a, p, /*up=*/true);
      break;
    case FaultKind::kServerCrash:
      if (primary) {
        ++stats.server_crashes;
        if (event.server >= 0 &&
            event.server < static_cast<int>(servers_.size())) {
          servers_[static_cast<std::size_t>(event.server)].crash();
        }
      }
      break;
    case FaultKind::kServerRestart:
      if (primary && event.server >= 0 &&
          event.server < static_cast<int>(servers_.size())) {
        servers_[static_cast<std::size_t>(event.server)].restart();
      }
      break;
  }
}

FaultInjector::Stats FaultInjector::stats() const {
  Stats total;
  for (const Stats& shard : stats_shards_) {
    total.injected += shard.injected;
    total.link_flaps += shard.link_flaps;
    total.bandwidth_collapses += shard.bandwidth_collapses;
    total.burst_episodes += shard.burst_episodes;
    total.partitions += shard.partitions;
    total.server_crashes += shard.server_crashes;
  }
  return total;
}

void FaultInjector::flush_telemetry() {
  auto* hub = net_.sim().telemetry();
  if (hub == nullptr) return;
  const Stats total = stats();
  auto& m = hub->metrics();
  m.set("fault/injected", static_cast<double>(total.injected));
  m.set("fault/link_flaps", static_cast<double>(total.link_flaps));
  m.set("fault/bandwidth_collapses",
        static_cast<double>(total.bandwidth_collapses));
  m.set("fault/burst_episodes", static_cast<double>(total.burst_episodes));
  m.set("fault/partitions", static_cast<double>(total.partitions));
  m.set("fault/server_crashes", static_cast<double>(total.server_crashes));
}

}  // namespace hyms::net
