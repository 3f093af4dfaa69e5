// Partitioned shared-world population: parallel-vs-sequential byte-identity
// at every partitions x threads combination (plus a 100-seed sweep and more
// partitions than clients), telemetry passivity, a partitioned Deployment
// whose zero-latency links force degenerate executor windows, the
// fleet-shared FrameCache crossing partition threads, and the differential
// check that faults landing while a packet train is parked in a batched
// link's calendar behave byte-identically to the per-packet reference path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "client/browser_session.hpp"
#include "harness.hpp"
#include "hermes/deployment.hpp"
#include "hermes/population.hpp"
#include "hermes/sample_content.hpp"
#include "media/frame_cache.hpp"
#include "net/link.hpp"
#include "net/loss.hpp"
#include "net/network.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

hermes::PopulationConfig small_population(std::uint64_t seed) {
  hermes::PopulationConfig cfg;
  cfg.sessions = 24;
  cfg.servers = 2;
  cfg.documents = 4;
  cfg.seed = seed;
  cfg.arrival_window = Time::sec(4);
  cfg.run_for = Time::sec(12);
  cfg.doc_seconds = 4;
  return cfg;
}

TEST(PopulationDeterminism, PartitionsTimesThreadsSweepIsByteIdentical) {
  for (const std::uint64_t seed : {1ull, 42ull}) {
    auto cfg = small_population(seed);
    cfg.partitions = 1;
    const hermes::PopulationResult seq = hermes::run_population(cfg, 1);
    ASSERT_GT(seq.events_executed, 0u);
    ASSERT_NE(seq.fingerprint, 0u);
    ASSERT_GT(seq.completed, 0);
    ASSERT_NE(seq.qoe_json.find("hyms-slo-v1"), std::string::npos);
    // The sequential kernel is itself deterministic run over run.
    const hermes::PopulationResult again = hermes::run_population(cfg, 1);
    EXPECT_EQ(again.fingerprint, seq.fingerprint) << "seed " << seed;
    EXPECT_EQ(again.events_csv, seq.events_csv) << "seed " << seed;

    for (const std::uint32_t partitions : {2u, 4u}) {
      for (const int threads : {1, 2, 4}) {
        cfg.partitions = partitions;
        const hermes::PopulationResult par = hermes::run_population(cfg,
                                                                    threads);
        EXPECT_EQ(par.fingerprint, seq.fingerprint)
            << "seed " << seed << " p" << partitions << " t" << threads;
        EXPECT_EQ(par.events_csv, seq.events_csv)
            << "seed " << seed << " p" << partitions << " t" << threads;
        EXPECT_EQ(par.qoe_json, seq.qoe_json)
            << "seed " << seed << " p" << partitions << " t" << threads;
        EXPECT_GT(par.windows, 0u);
        EXPECT_GT(par.messages, 0u);
        // Server 1's 2 ms backbone link plus its 7 us stagger is the
        // narrowest link crossing a partition boundary.
        EXPECT_EQ(par.lookahead, Time::usec(2007));
      }
    }
  }
}

/// The randomized sweep: 100 seeds of a small, short population, each
/// compared partitioned-vs-sequential on the full exported state.
TEST(PopulationDeterminism, HundredSeedFingerprintSweep) {
  std::int64_t finished = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    hermes::PopulationConfig cfg;
    cfg.sessions = 6;
    cfg.servers = 2;
    cfg.documents = 4;
    cfg.seed = seed;
    cfg.arrival_window = Time::sec(2);
    cfg.flash_at = Time::sec(1);
    cfg.doc_seconds = 3;
    cfg.run_for = Time::sec(5);
    const hermes::PopulationResult seq = hermes::run_population(cfg, 1);
    cfg.partitions = 3;
    const hermes::PopulationResult par = hermes::run_population(cfg, 3);
    ASSERT_EQ(par.fingerprint, seq.fingerprint) << "seed " << seed;
    ASSERT_EQ(par.events_csv, seq.events_csv) << "seed " << seed;
    ASSERT_EQ(par.qoe_json, seq.qoe_json) << "seed " << seed;
    finished += seq.completed + seq.degraded;
  }
  EXPECT_GT(finished, 0);  // the sweep covers whole sessions, not just setup
}

TEST(PopulationDeterminism, MorePartitionsThanClientsStillRuns) {
  auto cfg = small_population(3);
  cfg.sessions = 2;
  cfg.servers = 1;
  cfg.documents = 1;
  const hermes::PopulationResult seq = hermes::run_population(cfg, 1);
  cfg.partitions = 6;  // three partitions hold no node at all
  const hermes::PopulationResult par = hermes::run_population(cfg, 4);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
  EXPECT_EQ(par.events_csv, seq.events_csv);
  EXPECT_EQ(par.qoe_json, seq.qoe_json);
}

/// Telemetry is passive: it never changes what the simulation does. Only
/// the per-session `S,` summary rows differ, because they carry QoE columns.
TEST(PopulationTelemetry, RecordingDoesNotPerturbTheRun) {
  auto cfg = small_population(13);
  cfg.telemetry = false;
  const hermes::PopulationResult bare = hermes::run_population(cfg, 1);
  cfg.telemetry = true;
  const hermes::PopulationResult traced = hermes::run_population(cfg, 1);

  EXPECT_EQ(traced.events_executed, bare.events_executed);
  const auto event_rows = [](const std::string& csv) {
    return csv.substr(0, csv.find("\nS,"));
  };
  EXPECT_EQ(event_rows(traced.events_csv), event_rows(bare.events_csv));
  EXPECT_NE(bare.events_csv.find("\nS,"), std::string::npos);
  EXPECT_EQ(std::tie(traced.completed, traced.degraded, traced.churned,
                     traced.abandoned, traced.rejected, traced.failed,
                     traced.unfinished),
            std::tie(bare.completed, bare.degraded, bare.churned,
                     bare.abandoned, bare.rejected, bare.failed,
                     bare.unfinished));
  EXPECT_TRUE(bare.qoe_json.empty());
  EXPECT_FALSE(traced.qoe_json.empty());
}

// --- degenerate windows: zero-latency links on a partitioned Deployment -----
//
// Zero backbone and access propagation makes the cross-partition lookahead
// zero, so every executor window collapses to one timestamp. Sessions must
// still see exactly what they see on the sequential kernel.

struct ZeroLatencyOutcome {
  Time lookahead;
  std::size_t messages = 0;  // cross-partition mailings (0 when sequential)
  std::vector<std::vector<std::string>> logs;
  std::vector<client::SessionOutcome> outcomes;
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped_no_route = 0;
  std::int64_t dropped_no_socket = 0;
};

ZeroLatencyOutcome run_zero_latency(std::uint32_t partitions, int threads) {
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> sim_ptrs;
  sim::ParallelExec exec;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    sims.push_back(std::make_unique<sim::Simulator>(11));
    sim_ptrs.push_back(sims.back().get());
    exec.add_partition(*sims.back());
  }
  hermes::Deployment::Config dc;
  dc.server_count = 2;
  dc.client_count = kSessions;
  dc.backbone.propagation = Time::zero();
  dc.client_access.propagation = Time::zero();
  hermes::Deployment deployment(sim_ptrs, partitions > 1 ? &exec : nullptr,
                                dc);
  for (int s = 0; s < dc.server_count; ++s) {
    EXPECT_TRUE(deployment.server(s)
                    .documents()
                    .add("lesson", bench::lecture_markup(3))
                    .ok());
  }
  net::Network& net = deployment.network();

  std::vector<std::unique_ptr<client::BrowserSession>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    const net::NodeId node = deployment.client_node(i);
    sessions.push_back(std::make_unique<client::BrowserSession>(
        net, node, deployment.server(i % dc.server_count).control_endpoint(),
        client::BrowserSession::Config{}));
    client::BrowserSession* session = sessions.back().get();
    const std::string user = "zero-" + std::to_string(i);
    session->set_subscription_form(hermes::student_form(user, "standard"));
    // Staggered starts, each on the client's own partition kernel.
    net.sim_at(node).schedule_at(Time::msec(37) * i, [session, user] {
      session->connect(user, "secret-" + user);
      session->queue_document("lesson");
    });
  }

  ZeroLatencyOutcome out;
  out.lookahead = net.cross_lookahead();
  const Time horizon = Time::sec(6);
  if (partitions > 1) {
    exec.set_lookahead(out.lookahead);
    exec.run_until(horizon, threads);
    out.messages = exec.stats().messages;
  } else {
    sims[0]->run_until(horizon);
  }
  for (const auto& session : sessions) {
    out.logs.push_back(session->event_log());
    out.outcomes.push_back(session->outcome());
  }
  const net::Network::Stats stats = net.stats();
  out.sent = stats.sent;
  out.delivered = stats.delivered;
  out.dropped_no_route = stats.dropped_no_route;
  out.dropped_no_socket = stats.dropped_no_socket;
  return out;
}

TEST(PartitionedDeployment, ZeroPropagationForcesDegenerateWindowsStillIdentical) {
  const ZeroLatencyOutcome seq = run_zero_latency(1, 1);
  EXPECT_EQ(seq.lookahead, Time::max());
  ASSERT_EQ(seq.outcomes.size(), 4u);
  for (const auto outcome : seq.outcomes) {
    EXPECT_EQ(outcome, client::SessionOutcome::kCompleted);
  }
  for (const int threads : {1, 3}) {
    const ZeroLatencyOutcome par = run_zero_latency(3, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(par.lookahead, Time::zero());
    EXPECT_GT(par.messages, 0u);
    EXPECT_EQ(par.logs, seq.logs);
    EXPECT_EQ(par.outcomes, seq.outcomes);
    EXPECT_EQ(std::tie(par.sent, par.delivered, par.dropped_no_route,
                       par.dropped_no_socket),
              std::tie(seq.sent, seq.delivered, seq.dropped_no_route,
                       seq.dropped_no_socket));
  }
}

TEST(PopulationDeterminism, SharedFrameCacheAcrossPartitions) {
  auto cfg = small_population(7);
  cfg.partitions = 1;
  const hermes::PopulationResult seq = hermes::run_population(cfg, 1);

  // One explicit cache instance shared by both servers — which live on
  // DIFFERENT partitions when partitions=2, so hits and misses cross worker
  // threads (the TSan leg runs this file).
  media::FrameCache::Config cc;
  cc.byte_budget = 32ull << 20;
  cfg.frame_cache = std::make_shared<media::FrameCache>(cc);
  cfg.partitions = 2;
  const hermes::PopulationResult par = hermes::run_population(cfg, 2);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
  EXPECT_EQ(par.events_csv, seq.events_csv);
  EXPECT_EQ(par.qoe_json, seq.qoe_json);
  EXPECT_GT(par.cache_hits + par.cache_misses, 0);

  // A pre-warmed shared cache must not perturb simulation outcomes either:
  // cache state changes who synthesizes, never what arrives when.
  const hermes::PopulationResult warm = hermes::run_population(cfg, 2);
  EXPECT_EQ(warm.fingerprint, seq.fingerprint);
  EXPECT_EQ(warm.events_csv, seq.events_csv);
  EXPECT_GT(warm.cache_hits, par.cache_hits);
}

TEST(PopulationFates, EverySessionGetsExactlyOneFate) {
  auto cfg = small_population(3);
  const hermes::PopulationResult r = hermes::run_population(cfg, 1);
  EXPECT_EQ(r.completed + r.degraded + r.churned + r.abandoned + r.rejected +
                r.failed + r.unfinished,
            cfg.sessions);
  EXPECT_GT(r.completed, 0);
  // One "arrive" row per session in the canonical log.
  std::size_t arrivals = 0;
  for (std::size_t pos = r.events_csv.find(",arrive,");
       pos != std::string::npos;
       pos = r.events_csv.find(",arrive,", pos + 1)) {
    ++arrivals;
  }
  EXPECT_EQ(arrivals, static_cast<std::size_t>(cfg.sessions));
}

// --- satellite: faults vs the batched-train calendar -------------------------
//
// Link flaps and bandwidth-override push/pop land mid-run while trains are
// parked in the batched link's arrival calendar. The batched and per-packet
// paths must produce the same per-packet delivery timeline, the same loss
// outcomes (same RNG draw order) and the same drop accounting.

struct ChaosOutcome {
  std::vector<std::pair<std::int64_t, std::size_t>> arrivals;  // (t_us, size)
  std::int64_t offered = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped_queue = 0;
  std::int64_t dropped_loss = 0;
  std::int64_t dropped_down = 0;
  std::int64_t net_sent = 0;
  std::int64_t net_delivered = 0;

  bool operator==(const ChaosOutcome& o) const {
    return std::tie(arrivals, offered, delivered, dropped_queue, dropped_loss,
                    dropped_down, net_sent, net_delivered) ==
           std::tie(o.arrivals, o.offered, o.delivered, o.dropped_queue,
                    o.dropped_loss, o.dropped_down, o.net_sent,
                    o.net_delivered);
  }
};

ChaosOutcome run_fault_chaos(bool batching, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.bandwidth_bps = 10e6;
  lp.propagation = Time::msec(5);
  lp.queue_capacity_bytes = 24 * 1024;  // small: overflow mid-train
  lp.batching = batching;
  lp.loss = std::make_shared<net::BernoulliLoss>(0.15);
  net.connect(a, b, lp);
  net::Link* link = net.find_link(a, b);

  ChaosOutcome out;
  net.bind(b, 50, [&](const net::Packet& pkt) {
    out.arrivals.emplace_back(sim.now().us(), pkt.payload.size());
  });

  const auto send_train = [&](int count, std::size_t bytes) {
    std::vector<net::Payload> train;
    train.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      train.push_back(net::Payload(bytes, static_cast<std::uint8_t>(i)));
    }
    net.send_train(net::Endpoint{a, 9}, net::Endpoint{b, 50}, train);
  };

  // Trains park ~16ms of serialization in the calendar; the fault script
  // lands inside that span.
  sim.schedule_at(Time::zero(), [&] { send_train(18, 1000); });
  sim.schedule_at(Time::msec(1), [&] {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(400, 9));
  });
  sim.schedule_at(Time::msec(2), [&] { link->set_up(false); });
  sim.schedule_at(Time::msec(3), [&] { send_train(6, 700); });  // all down-drop
  sim.schedule_at(Time::msec(4), [&] { link->set_up(true); });
  sim.schedule_at(Time::msec(6), [&] {
    auto collapsed = link->params();
    collapsed.bandwidth_bps = 2e6;
    link->push_override(collapsed);
  });
  sim.schedule_at(Time::msec(7), [&] { send_train(8, 1200); });
  sim.schedule_at(Time::msec(11), [&] { link->pop_override(); });
  sim.schedule_at(Time::msec(12), [&] { send_train(10, 600); });
  sim.run();

  const auto& ls = link->stats();
  out.offered = ls.offered;
  out.delivered = ls.delivered;
  out.dropped_queue = ls.dropped_queue;
  out.dropped_loss = ls.dropped_loss;
  out.dropped_down = ls.dropped_down;
  const auto ns = net.stats();
  out.net_sent = ns.sent;
  out.net_delivered = ns.delivered;
  return out;
}

TEST(FaultBatchingDifferential, FaultsDuringParkedTrainsAreByteIdentical) {
  for (const std::uint64_t seed : {1ull, 9ull, 23ull}) {
    const ChaosOutcome batched = run_fault_chaos(true, seed);
    const ChaosOutcome unbatched = run_fault_chaos(false, seed);
    EXPECT_TRUE(batched == unbatched) << "seed " << seed;
    // The script must actually exercise every interaction it claims to.
    EXPECT_GT(batched.dropped_down, 0) << "seed " << seed;
    EXPECT_GT(batched.dropped_loss, 0) << "seed " << seed;
    EXPECT_GT(batched.delivered, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hyms
