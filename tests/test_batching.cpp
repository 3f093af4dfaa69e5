#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "hermes/sample_content.hpp"
#include "net/loss.hpp"
#include "net/network.hpp"
#include "server/multimedia_server.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

net::LinkParams link_params(bool batching) {
  net::LinkParams lp;
  lp.bandwidth_bps = 10e6;
  lp.propagation = Time::msec(5);
  lp.queue_capacity_bytes = 64 * 1024;
  lp.batching = batching;
  return lp;
}

// --- send_train edge cases ---------------------------------------------------

TEST(SendTrainTest, EmptyTrainIsNoOp) {
  sim::Simulator sim(7);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, link_params(true));
  int received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });

  std::vector<net::Payload> empty;
  net.send_train(net::Endpoint{a, 9}, net::Endpoint{b, 50}, empty);
  EXPECT_EQ(sim.queued(), 0u);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().sent, 0);
}

TEST(SendTrainTest, SinglePacketTrainExactArrival) {
  sim::Simulator sim(7);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, link_params(true));
  Time arrival;
  std::size_t got = 0;
  net.bind(b, 50, [&](const net::Packet& pkt) {
    arrival = sim.now();
    got = pkt.payload.size();
  });

  std::vector<net::Payload> train;
  train.push_back(net::Payload(1000, 1));
  net.send_train(net::Endpoint{a, 9}, net::Endpoint{b, 50}, train);
  EXPECT_TRUE(train.empty());  // consumed
  sim.run();

  // serialization (1028B * 8 / 10Mbps = 822.4us) + 5ms propagation: the
  // same arithmetic as a lone transmit() on the unbatched path.
  EXPECT_EQ(got, 1000u);
  EXPECT_NEAR(arrival.to_seconds(), 0.005 + 1028 * 8 / 10e6, 1e-6);
}

TEST(SendTrainTest, BackToBackTrainArrivalsAreCumulative) {
  sim::Simulator sim(7);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, link_params(true));
  std::vector<Time> arrivals;
  net.bind(b, 50, [&](const net::Packet&) { arrivals.push_back(sim.now()); });

  std::vector<net::Payload> train;
  for (int i = 0; i < 5; ++i) train.push_back(net::Payload(1000, 1));
  net.send_train(net::Endpoint{a, 9}, net::Endpoint{b, 50}, train);
  const std::size_t events_before_run = sim.queued();
  sim.run();

  // Serialization is sequential: packet i finishes at (i+1) * 822us (822.4us
  // truncated to the clock's microsecond tick, accumulating exactly as the
  // link's busy-until horizon does), then rides the 5ms propagation. All
  // five must arrive, each on its own stamp.
  ASSERT_EQ(arrivals.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(arrivals[static_cast<std::size_t>(i)].us(),
              5000 + (i + 1) * 822);
  }
  // The train pends as one chained arrival event, not five.
  EXPECT_EQ(events_before_run, 1u);
}

TEST(SendTrainTest, TrainSplitByQueueOverflow) {
  sim::Simulator sim(7);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  auto lp = link_params(true);
  lp.queue_capacity_bytes = 3 * 1028;  // room for exactly three wire packets
  net.connect(a, b, lp);
  int received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });

  std::vector<net::Payload> train;
  for (int i = 0; i < 5; ++i) train.push_back(net::Payload(1000, 1));
  net.send_train(net::Endpoint{a, 9}, net::Endpoint{b, 50}, train);
  sim.run();

  // The first three are admitted back-to-back; four and five exceed the
  // buffer and drop, in offer order — the train splits, survivors deliver.
  EXPECT_EQ(received, 3);
  const auto* link = net.find_link(a, b);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->stats().offered, 5);
  EXPECT_EQ(link->stats().delivered, 3);
  EXPECT_EQ(link->stats().dropped_queue, 2);
}

TEST(SendTrainTest, NodeLocalTrainDeliversEachPacketInOrder) {
  sim::Simulator sim(7);
  net::Network net(sim);
  const auto a = net.add_host("a");
  std::vector<std::uint8_t> seen;
  net.bind(a, 50, [&](const net::Packet& pkt) {
    seen.push_back(pkt.payload.front());
  });
  const std::size_t pooled_before = net.payload_pool().size();

  std::vector<net::Payload> train;
  for (std::uint8_t i = 0; i < 5; ++i) train.push_back(net::Payload(100, i));
  net.send_train(net::Endpoint{a, 9}, net::Endpoint{a, 50}, train);

  // No link to cross: delivery is immediate, in offer order, and every
  // buffer goes back to the pool once its callback has returned.
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.queued(), 0u);
  EXPECT_EQ(net.stats().sent, 5);
  EXPECT_EQ(net.stats().delivered, 5);
  EXPECT_EQ(net.payload_pool().size(), pooled_before + 5);
}

// LinkParams::batching applies to packets offered after set_params(), so a
// link may switch to the reference delivery mid-run. Both deliveries share
// one admission routine, so the bytes of a packet the calendar delivered
// leave the queue before the next offer's capacity check on either.
TEST(SendTrainTest, SwitchToReferenceMidRunSeesAnEmptyQueue) {
  sim::Simulator sim(7);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  auto lp = link_params(true);
  lp.queue_capacity_bytes = 2000;  // room for one 1500-byte packet at a time
  net.connect(a, b, lp);
  net::Link* link = net.find_link(a, b);
  ASSERT_NE(link, nullptr);
  int received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  const auto send_one = [&net, a, b] {
    // 1472 payload bytes + the 28-byte IP/UDP header: 1500 on the wire.
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(1472, 1));
  };

  send_one();  // batched: delivered by the chain at its own arrival time
  sim.schedule_at(Time::sec(1), [&] {
    lp.batching = false;
    link->set_params(lp);
    send_one();
  });
  sim.run();

  EXPECT_EQ(received, 2);
  EXPECT_EQ(link->stats().offered, 2);
  EXPECT_EQ(link->stats().delivered, 2);
  EXPECT_EQ(link->stats().dropped_queue, 0);
}

// Same seed, same topology, same traffic — the only difference is the
// batching flag. Arrival timestamps, packet ids and loss outcomes must match
// exactly (the per-link RNG streams draw in offer order on both paths).
TEST(SendTrainTest, BatchedMatchesUnbatchedTimestampsUnderLoss) {
  auto run = [](bool batching) {
    sim::Simulator sim(21);
    net::Network net(sim);
    const auto a = net.add_host("a");
    const auto r = net.add_router("r");
    const auto b = net.add_host("b");
    auto lp = link_params(batching);
    lp.loss = std::make_shared<net::BernoulliLoss>(0.1);
    lp.jitter_stddev = Time::usec(200);
    net.connect(a, r, lp);
    net.connect(r, b, lp);
    std::vector<std::pair<std::uint64_t, std::int64_t>> log;
    net.bind(b, 50, [&](const net::Packet& pkt) {
      log.emplace_back(pkt.id, sim.now().us());
    });
    auto& sock = net.bind(a, 0, [](const net::Packet&) {});
    for (int burst = 0; burst < 20; ++burst) {
      sim.schedule_at(Time::msec(burst * 3), [&net, &sock, b] {
        std::vector<net::Payload> train;
        for (int i = 0; i < 8; ++i) train.push_back(net::Payload(700, 2));
        net.send_train(sock.local(), net::Endpoint{b, 50}, train);
      });
    }
    sim.run();
    return log;
  };
  const auto batched = run(true);
  const auto unbatched = run(false);
  EXPECT_GT(batched.size(), 100u);  // loss trimmed some of the 160
  EXPECT_EQ(batched, unbatched);
}

// --- full-scenario differential (the ISSUE's headline test) ------------------

TEST(BatchingDifferentialTest, LossySessionByteIdenticalPlayout) {
  bench::SessionParams params;
  params.markup = bench::lecture_markup(8);
  params.seed = 11;
  params.run_for = Time::sec(12);
  params.bernoulli_loss = 0.02;
  params.jitter_stddev = Time::msec(2);
  params.capture_playout_events = true;

  params.link_batching = true;
  const auto batched = bench::run_session(params);
  params.link_batching = false;
  const auto unbatched = bench::run_session(params);

  ASSERT_FALSE(batched.failed) << batched.error;
  ASSERT_FALSE(unbatched.failed) << unbatched.error;
  EXPECT_GT(batched.totals.fresh, 0);
  EXPECT_FALSE(batched.events_csv.empty());
  // Byte-identical playout event log, identical RTCP feedback, identical
  // loss/queue outcomes on the impaired downlink, identical fingerprints.
  EXPECT_EQ(batched.events_csv, unbatched.events_csv);
  EXPECT_EQ(batched.rtcp_reports_sent, unbatched.rtcp_reports_sent);
  EXPECT_EQ(batched.rtcp_packets_lost, unbatched.rtcp_packets_lost);
  EXPECT_EQ(batched.link_dropped_loss, unbatched.link_dropped_loss);
  EXPECT_EQ(batched.link_dropped_queue, unbatched.link_dropped_queue);
  EXPECT_EQ(bench::session_fingerprint(batched),
            bench::session_fingerprint(unbatched));
}

// --- flow-plan cache ---------------------------------------------------------

TEST(PlanCacheTest, HitsMissesAndInvalidation) {
  sim::Simulator sim(3);
  net::Network net(sim);
  const auto host = net.add_host("server");
  server::MultimediaServer::Config config;
  server::MultimediaServer server(net, host, config);
  ASSERT_TRUE(
      server.documents().add("fig2", hermes::fig2_lesson_markup()).ok());
  const server::StoredDocument* doc = server.documents().find("fig2");
  ASSERT_NE(doc, nullptr);

  auto first = server.plan_for(*doc, 1, 1);
  ASSERT_TRUE(first.ok()) << first.error().message;
  EXPECT_EQ(server.stats().plan_cache_misses, 1);
  EXPECT_EQ(server.stats().plan_cache_hits, 0);

  auto second = server.plan_for(*doc, 1, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());  // same cached object
  EXPECT_EQ(server.stats().plan_cache_hits, 1);

  // Different floors key a different plan.
  ASSERT_TRUE(server.plan_for(*doc, 2, 1).ok());
  EXPECT_EQ(server.stats().plan_cache_misses, 2);

  // Re-adding the document invalidates its cached plans (all floors).
  ASSERT_TRUE(
      server.documents().add("fig2", hermes::fig2_lesson_markup()).ok());
  doc = server.documents().find("fig2");
  ASSERT_TRUE(server.plan_for(*doc, 1, 1).ok());
  EXPECT_EQ(server.stats().plan_cache_misses, 3);

  // A catalog mutation clears the whole cache (rates may have changed).
  server.catalog().register_source(
      "video:mpeg:clip", server.catalog().resolve("video:mpeg:clip").value());
  ASSERT_TRUE(server.plan_for(*doc, 1, 1).ok());
  EXPECT_EQ(server.stats().plan_cache_misses, 4);
}

// --- heterogeneous catalog lookup -------------------------------------------

TEST(CatalogLookupTest, StringViewResolveAndFind) {
  server::MediaCatalog catalog;
  ASSERT_TRUE(catalog.resolve(std::string_view("video:mpeg:clip:10")).ok());
  EXPECT_EQ(catalog.size(), 1u);
  // Second resolve through a string_view hits the cached entry.
  ASSERT_TRUE(catalog.resolve(std::string_view("video:mpeg:clip:10")).ok());
  EXPECT_EQ(catalog.size(), 1u);

  server::DocumentStore store;
  ASSERT_TRUE(store.add("zeta", hermes::fig2_lesson_markup()).ok());
  ASSERT_TRUE(store.add("alpha", hermes::fig2_lesson_markup()).ok());
  EXPECT_NE(store.find(std::string_view("zeta")), nullptr);
  EXPECT_EQ(store.find(std::string_view("missing")), nullptr);
  // list() stays sorted despite the hashed container.
  const auto names = store.list();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

}  // namespace
}  // namespace hyms
