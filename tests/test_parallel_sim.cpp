// Conservative parallel execution: the ParallelExec window/mailbox machinery
// (canonical merge order, degenerate zero-lookahead windows, the post()
// lookahead contract), the Network's cross-partition lookahead math and a
// conduit calendar's order among equal arrivals.
// Full-stack partitioned-vs-sequential byte-identity lives in
// test_population. CI additionally runs this binary under TSan to prove the
// barrier-windowed handoff is race-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

// --- Network::cross_lookahead ----------------------------------------------

/// Two partition kernels, their executor and a Network over both. Nodes
/// default to partition 0.
struct TwoPartitions {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  net::Network net{{&s0, &s1}, &exec};

  TwoPartitions() {
    exec.add_partition(s0);
    exec.add_partition(s1);
  }
  net::NodeId host_on(std::uint32_t partition) {
    const net::NodeId node =
        net.add_host("h" + std::to_string(net.node_count()));
    net.set_node_partition(node, partition);
    return node;
  }
};

net::LinkParams with_propagation(Time propagation) {
  net::LinkParams params;
  params.propagation = propagation;
  return params;
}

TEST(CrossLookaheadTest, MinimumOverCrossingLinksOnly) {
  TwoPartitions w;
  const net::NodeId a = w.host_on(0);
  const net::NodeId b = w.host_on(0);
  const net::NodeId c = w.host_on(1);
  w.net.connect(a, b, with_propagation(Time::usec(10)));  // no constraint
  w.net.connect(a, c, with_propagation(Time::msec(5)));   // crosses
  w.net.connect(c, b, with_propagation(Time::msec(2)));   // crosses
  EXPECT_EQ(w.net.cross_lookahead(), Time::msec(2));
  EXPECT_FALSE(w.net.find_link(a, b)->is_conduit());
  EXPECT_TRUE(w.net.find_link(a, c)->is_conduit());
  EXPECT_TRUE(w.net.find_link(b, c)->is_conduit());
}

TEST(CrossLookaheadTest, NothingCrossingMeansUnboundedLookahead) {
  TwoPartitions w;
  const net::NodeId a = w.host_on(1);
  const net::NodeId b = w.host_on(1);
  w.host_on(0);  // the other partition is populated, but no link reaches it
  EXPECT_EQ(w.net.cross_lookahead(), Time::max());
  w.net.connect(a, b, with_propagation(Time::usec(1)));  // inside partition 1
  EXPECT_EQ(w.net.cross_lookahead(), Time::max());
}

TEST(CrossLookaheadTest, ZeroLatencyCrossingLinkGivesZero) {
  TwoPartitions w;
  const net::NodeId a = w.host_on(0);
  const net::NodeId b = w.host_on(1);
  w.net.connect(a, b, with_propagation(Time::zero()));
  EXPECT_TRUE(w.net.find_link(a, b)->is_conduit());
  EXPECT_EQ(w.net.cross_lookahead(), Time::zero());
}

TEST(CrossLookaheadTest, RejectsBadInput) {
  TwoPartitions w;
  const net::NodeId a = w.host_on(0);
  const net::NodeId b = w.host_on(1);
  EXPECT_THROW(w.net.set_node_partition(a, 2), std::invalid_argument);
  // A negative reverse direction is caught before either link is built.
  EXPECT_THROW(w.net.connect(a, b, with_propagation(Time::msec(1)),
                             with_propagation(Time::usec(-1))),
               std::invalid_argument);
  EXPECT_EQ(w.net.find_link(a, b), nullptr);
  EXPECT_EQ(w.net.find_link(b, a), nullptr);
  EXPECT_EQ(w.net.cross_lookahead(), Time::max());
}

// --- Conduit calendar order ---------------------------------------------------

/// Ids in delivery order at b of two trains on the link a->b (10 Mbps, 1250
/// bytes on the wire: 1 ms serialization). At t=0 one packet leaves with
/// 5 ms propagation and arrives at 6 ms; at 1 ms the propagation drops to
/// 2 ms and three packets follow, arriving at 4, 5 and 6 ms. Partitioned, b
/// sits on partition 1 behind a 2 ms lookahead, so both trains are mailed in
/// one window and the executor injects the second first (its earliest
/// arrival is smaller).
std::vector<std::uint64_t> equal_arrival_order(bool partitioned) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  auto net = partitioned ? std::make_unique<net::Network>(
                               std::vector<sim::Simulator*>{&s0, &s1}, &exec)
                         : std::make_unique<net::Network>(s0);
  const net::NodeId a = net->add_host("a");
  const net::NodeId b = net->add_host("b");
  if (partitioned) net->set_node_partition(b, 1);
  net::LinkParams params = with_propagation(Time::msec(5));
  params.bandwidth_bps = 10e6;
  net->connect(a, b, params);
  net::Link* link = net->find_link(a, b);
  std::vector<std::uint64_t> ids;
  net->bind(b, 50, [&ids](const net::Packet& pkt) { ids.push_back(pkt.id); });
  const auto train = [&net, a, b](std::size_t packets) {
    std::vector<net::Payload> payloads(
        packets, net::Payload(1250 - net::kIpUdpOverhead));
    net->send_train(net::Endpoint{a, 9}, net::Endpoint{b, 50}, payloads);
  };
  s0.schedule_at(Time::zero(), [&train] { train(1); });
  s0.schedule_at(Time::msec(1), [&] {
    params.propagation = Time::msec(2);
    link->set_params(params);
    train(3);
  });
  net->finalize_routes();
  if (partitioned) {
    EXPECT_TRUE(link->is_conduit());
    exec.set_lookahead(Time::msec(2));
    exec.run_until(Time::msec(20), 2);
  } else {
    s0.run();
  }
  return ids;
}

/// A link's calendar orders equal arrivals by offer, whatever order the
/// packets reach it in: packets 1 and 4 both arrive at 6 ms, and 1 was
/// offered first on both kernels.
TEST(ConduitOrderTest, EqualArrivalsDeliverInOfferOrder) {
  const std::vector<std::uint64_t> sequential = equal_arrival_order(false);
  EXPECT_EQ(sequential, (std::vector<std::uint64_t>{2, 3, 1, 4}));
  EXPECT_EQ(equal_arrival_order(true), sequential);
}

// --- ParallelExec mechanics --------------------------------------------------

/// Ping-pong across a 2-partition boundary with latency L, checked against a
/// hand-run sequential reference: the full (time, side) trace must match.
TEST(ParallelExecTest, PingPongMatchesSequentialReference) {
  constexpr Time kLat = Time::msec(5);
  constexpr Time kEnd = Time::msec(200);

  // Sequential reference: one calendar, the "link" scheduled directly.
  std::vector<std::pair<std::int64_t, int>> want;
  {
    sim::Simulator sim;
    // self-scheduling ping-pong closure chain
    struct Ref {
      sim::Simulator& sim;
      std::vector<std::pair<std::int64_t, int>>& out;
      void hop(int side) {
        out.emplace_back(sim.now().us(), side);
        sim.schedule_at(sim.now() + kLat, [this, side] { hop(1 - side); });
      }
    } ref{sim, want};
    sim.schedule_at(Time::zero(), [&ref] { ref.hop(0); });
    sim.run_until(kEnd);
  }

  std::vector<std::pair<std::int64_t, int>> got;
  {
    sim::Simulator s0, s1;
    sim::ParallelExec exec;
    exec.add_partition(s0);
    exec.add_partition(s1);
    exec.set_lookahead(kLat);
    struct Par {
      sim::ParallelExec& exec;
      sim::Simulator* sims[2];
      std::vector<std::pair<std::int64_t, int>>& out;
      void hop(int side) {
        sim::Simulator& here = *sims[side];
        out.emplace_back(here.now().us(), side);
        const Time arrival = here.now() + kLat;
        const int other = 1 - side;
        exec.post(static_cast<std::uint32_t>(side),
                  static_cast<std::uint32_t>(other), arrival,
                  [this, other, arrival] {
                    sims[other]->schedule_at(arrival,
                                             [this, other] { hop(other); });
                  });
      }
    } par{exec, {&s0, &s1}, got};
    s0.schedule_at(Time::zero(), [&par] { par.hop(0); });
    exec.run_until(kEnd, 2);
    EXPECT_GT(exec.stats().windows, 0u);
    EXPECT_EQ(exec.stats().messages, got.size());  // every hop crossed once
  }
  EXPECT_EQ(got, want);
}

/// Simultaneous cross-partition messages inject in canonical (earliest, src,
/// seq) order, never in post/drain order.
TEST(ParallelExecTest, SimultaneousArrivalsMergeStably) {
  sim::Simulator s0, s1, s2;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.add_partition(s2);
  exec.set_lookahead(Time::usec(1));

  std::vector<std::string> order;
  const auto tag = [&order](std::string label) {
    return [&order, label = std::move(label)] { order.push_back(label); };
  };
  // Posted deliberately out of canonical order.
  exec.post(2, 0, Time::usec(100), tag("t100 src2 #0"));
  exec.post(1, 0, Time::usec(100), tag("t100 src1 #0"));
  exec.post(1, 0, Time::usec(100), tag("t100 src1 #1"));
  exec.post(2, 0, Time::usec(50), tag("t50 src2 #0"));
  exec.post(1, 0, Time::usec(200), tag("t200 src1 #0"));
  exec.run_until(Time::usec(300), 3);

  const std::vector<std::string> want{"t50 src2 #0", "t100 src1 #0",
                                      "t100 src1 #1", "t100 src2 #0",
                                      "t200 src1 #0"};
  EXPECT_EQ(order, want);
}

/// Zero lookahead (a zero-latency cross-partition link) collapses to
/// single-timestamp windows that still deliver every message at its exact
/// logical time.
TEST(ParallelExecTest, ZeroLookaheadDegeneratesButStaysCorrect) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.set_lookahead(Time::zero());

  std::vector<std::pair<std::int64_t, int>> got;
  struct Chain {
    sim::ParallelExec& exec;
    sim::Simulator* sims[2];
    std::vector<std::pair<std::int64_t, int>>& out;
    void hop(int side, int hops_left) {
      sim::Simulator& here = *sims[side];
      out.emplace_back(here.now().us(), side);
      if (hops_left == 0) return;
      // Minimal latency: 1us per hop, so every window is one timestamp wide.
      const Time arrival = here.now() + Time::usec(1);
      const int other = 1 - side;
      exec.post(static_cast<std::uint32_t>(side),
                static_cast<std::uint32_t>(other), arrival,
                [this, other, arrival, hops_left] {
                  sims[other]->schedule_at(arrival, [this, other, hops_left] {
                    hop(other, hops_left - 1);
                  });
                });
    }
  } chain{exec, {&s0, &s1}, got};
  s0.schedule_at(Time::zero(), [&chain] { chain.hop(0, 64); });
  exec.run_until(Time::msec(1), 2);

  ASSERT_EQ(got.size(), 65u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, static_cast<std::int64_t>(i));
    EXPECT_EQ(got[i].second, static_cast<int>(i % 2));
  }
  EXPECT_EQ(exec.stats().min_window, Time::zero());
}

TEST(ParallelExecTest, MessagesBeyondDeadlineStayBufferedAcrossRuns) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.set_lookahead(Time::msec(1));

  int fired = 0;
  s0.schedule_at(Time::msec(2), [&] {
    exec.post(0, 1, Time::msec(5), [&] {
      s1.schedule_at(Time::msec(5), [&fired] { ++fired; });
    });
  });
  exec.run_until(Time::msec(3), 2);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s1.now(), Time::msec(3));
  exec.run_until(Time::msec(10), 2);  // the buffered message injects now
  EXPECT_EQ(fired, 1);
}

TEST(ParallelExecTest, PartitionExceptionPropagatesToCaller) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.set_lookahead(Time::msec(1));
  s1.schedule_at(Time::msec(1),
                 [] { throw std::runtime_error("partition boom"); });
  EXPECT_THROW(exec.run_until(Time::msec(5), 2), std::runtime_error);
}

/// A cross-partition message earlier than the poster's clock + lookahead
/// could land inside a window its destination already ran; post() refuses
/// it instead of silently breaking byte-identity.
TEST(ParallelExecTest, PostInsideLookaheadThrows) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.set_lookahead(Time::msec(1));
  EXPECT_THROW(exec.post(0, 1, Time::usec(999), [] {}), std::logic_error);
  EXPECT_NO_THROW(exec.post(0, 1, Time::msec(1), [] {}));
  EXPECT_NO_THROW(exec.post(1, 1, Time::zero(), [] {}));  // same partition

  // Inside a window the poster's own clock counts; the error surfaces from
  // run_until on the caller's thread.
  s0.schedule_at(Time::msec(2), [&exec] {
    exec.post(0, 1, Time::msec(2) + Time::usec(500), [] {});
  });
  EXPECT_THROW(exec.run_until(Time::msec(5), 2), std::logic_error);

  // With nothing crossing (lookahead Time::max()) the bound saturates
  // rather than overflowing, so any cross post is still refused.
  sim::Simulator t0, t1;
  sim::ParallelExec unbounded;
  unbounded.add_partition(t0);
  unbounded.add_partition(t1);
  unbounded.set_lookahead(Time::max());
  unbounded.run_until(Time::msec(1), 1);
  EXPECT_THROW(unbounded.post(0, 1, Time::sec(100), [] {}), std::logic_error);
}

}  // namespace
}  // namespace hyms
