#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "client/browser_session.hpp"
#include "hermes/deployment.hpp"
#include "hermes/sample_content.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

using client::BrowserSession;
using client::ClientState;
using telemetry::QoeOutcome;

// --- Link up/down + override stack ------------------------------------------------

struct LinkFaultFixture : ::testing::Test {
  LinkFaultFixture() : sim(7), net(sim) {
    a = net.add_host("a");
    b = net.add_host("b");
    auto [ab_, ba_] = net.connect(a, b, net::LinkParams{});
    ab = ab_;
  }

  void send_one() {
    auto& sock = net.bind(a, 0, [](const net::Packet&) {});
    sock.send(net::Endpoint{b, 50}, net::Payload(100, 1));
  }

  sim::Simulator sim;
  net::Network net;
  net::NodeId a = 0, b = 0;
  net::Link* ab = nullptr;
};

TEST_F(LinkFaultFixture, DownLinkDropsOfferedPackets) {
  int got = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++got; });

  ab->set_up(false);
  EXPECT_FALSE(ab->up());
  send_one();
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(ab->stats().dropped_down, 1);
  EXPECT_EQ(ab->stats().offered, 1);

  ab->set_up(true);
  send_one();
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ab->stats().dropped_down, 1);
}

TEST_F(LinkFaultFixture, InFlightPacketsStillDeliverAfterDown) {
  int got = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++got; });
  send_one();  // admitted while up; takes ~5ms propagation
  sim.run_until(Time::usec(10));
  ab->set_up(false);  // severed behind the packet already on the wire
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(ab->stats().dropped_down, 0);
}

TEST_F(LinkFaultFixture, OverrideStackIsLifo) {
  const double base = ab->params().bandwidth_bps;
  net::LinkParams collapsed = ab->params();
  collapsed.bandwidth_bps = base * 0.1;
  ab->push_override(collapsed);
  EXPECT_EQ(ab->override_depth(), 1u);
  EXPECT_DOUBLE_EQ(ab->params().bandwidth_bps, base * 0.1);

  net::LinkParams lossy = ab->params();
  lossy.loss = std::make_shared<net::GilbertElliottLoss>(
      net::GilbertElliottLoss::Params{});
  ab->push_override(lossy);
  EXPECT_EQ(ab->override_depth(), 2u);
  EXPECT_NE(ab->params().loss, nullptr);

  ab->pop_override();
  EXPECT_EQ(ab->params().loss, nullptr);
  EXPECT_DOUBLE_EQ(ab->params().bandwidth_bps, base * 0.1);
  ab->pop_override();
  EXPECT_EQ(ab->override_depth(), 0u);
  EXPECT_DOUBLE_EQ(ab->params().bandwidth_bps, base);
  ab->pop_override();  // pop on empty stack is a safe no-op
  EXPECT_DOUBLE_EQ(ab->params().bandwidth_bps, base);
}

// --- FaultPlan generator ----------------------------------------------------------

std::vector<std::pair<net::NodeId, net::NodeId>> some_links() {
  return {{0, 1}, {1, 2}};
}

TEST(FaultPlanTest, GeneratorIsDeterministicPerSeed) {
  net::ChaosProfile profile;
  const auto p1 = net::make_random_plan(42, profile, some_links(), {2}, 1);
  const auto p2 = net::make_random_plan(42, profile, some_links(), {2}, 1);
  EXPECT_EQ(p1.summary(), p2.summary());
  EXPECT_FALSE(p1.empty());

  bool any_different = false;
  for (std::uint64_t seed = 43; seed < 48; ++seed) {
    if (net::make_random_plan(seed, profile, some_links(), {2}, 1).summary() !=
        p1.summary()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultPlanTest, EpisodesArePairedAndBounded) {
  net::ChaosProfile profile;
  profile.max_faults = 8;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto plan =
        net::make_random_plan(seed, profile, some_links(), {2}, 2);
    int opens = 0, closes = 0;
    for (const auto& event : plan.events) {
      EXPECT_GE(event.at, profile.start) << plan.summary();
      EXPECT_LE(event.at, profile.horizon) << plan.summary();
      switch (event.kind) {
        case net::FaultKind::kLinkDown:
        case net::FaultKind::kBandwidthCollapse:
        case net::FaultKind::kBurstLossBegin:
        case net::FaultKind::kPartitionNode:
        case net::FaultKind::kServerCrash: ++opens; break;
        case net::FaultKind::kLinkUp:
        case net::FaultKind::kBandwidthRestore:
        case net::FaultKind::kBurstLossEnd:
        case net::FaultKind::kHealNode:
        case net::FaultKind::kServerRestart: ++closes; break;
      }
    }
    // Every outage heals: a generated plan can never wedge the system.
    EXPECT_EQ(opens, closes) << "seed " << seed << "\n" << plan.summary();
  }
}

TEST(FaultInjectorTest, AppliesScriptedPlan) {
  sim::Simulator sim(9);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto r = net.add_router("r");
  const auto b = net.add_host("b");
  net.connect(a, r, net::LinkParams{});
  net.connect(r, b, net::LinkParams{});

  net::FaultPlan plan;
  net::FaultEvent flap;
  flap.at = Time::sec(1);
  flap.kind = net::FaultKind::kLinkDown;
  flap.a = a;
  flap.b = r;
  plan.add(flap);
  flap.at = Time::sec(2);
  flap.kind = net::FaultKind::kLinkUp;
  plan.add(flap);
  net::FaultEvent collapse;
  collapse.at = Time::sec(3);
  collapse.kind = net::FaultKind::kBandwidthCollapse;
  collapse.a = r;
  collapse.b = b;
  collapse.fraction = 0.25;
  plan.add(collapse);
  collapse.at = Time::sec(4);
  collapse.kind = net::FaultKind::kBandwidthRestore;
  plan.add(collapse);
  net::FaultEvent isolate;
  isolate.at = Time::sec(5);
  isolate.kind = net::FaultKind::kPartitionNode;
  isolate.a = r;
  plan.add(isolate);
  isolate.at = Time::sec(6);
  isolate.kind = net::FaultKind::kHealNode;
  plan.add(isolate);
  plan.normalize();

  net::FaultInjector injector(net);
  injector.arm(plan);

  // Up state of a->r, r->a, r->b and b->r.
  using Up = std::vector<bool>;
  const auto up = [&] {
    return Up{net.find_link(a, r)->up(), net.find_link(r, a)->up(),
              net.find_link(r, b)->up(), net.find_link(b, r)->up()};
  };
  const double base = net.find_link(r, b)->params().bandwidth_bps;
  sim.run_until(Time::msec(1500));
  EXPECT_EQ(up(), (Up{false, false, true, true}))
      << "the a-r flap downs both directions and leaves r-b up";
  sim.run_until(Time::msec(2500));
  EXPECT_EQ(up(), (Up{true, true, true, true}));
  sim.run_until(Time::msec(3500));
  EXPECT_DOUBLE_EQ(net.find_link(r, b)->params().bandwidth_bps, base * 0.25);
  sim.run_until(Time::msec(4500));
  EXPECT_DOUBLE_EQ(net.find_link(r, b)->params().bandwidth_bps, base);
  // Whole-node partition downs every link touching r, both directions.
  sim.run_until(Time::msec(5500));
  EXPECT_EQ(up(), (Up{false, false, false, false}));
  sim.run_until(Time::msec(6500));
  EXPECT_EQ(up(), (Up{true, true, true, true}));
  EXPECT_EQ(injector.stats().injected, 6);
  EXPECT_EQ(injector.stats().link_flaps, 1);
  EXPECT_EQ(injector.stats().bandwidth_collapses, 1);
  EXPECT_EQ(injector.stats().partitions, 1);
}

// --- Server crash / restart -------------------------------------------------------

class CrashFixture : public ::testing::Test {
 protected:
  explicit CrashFixture(const hermes::Deployment::Config& c = config())
      : sim_(1234), deployment_(sim_, c) {
    deployment_.server(0).documents().add("lesson", bench::lecture_markup(8));
  }

  static hermes::Deployment::Config config() {
    hermes::Deployment::Config c;
    c.server_template.suspend_keepalive = Time::sec(2);
    return c;
  }

  std::unique_ptr<BrowserSession> session(BrowserSession::Config c = {}) {
    auto s = std::make_unique<BrowserSession>(
        deployment_.network(), deployment_.client_node(0),
        deployment_.server(0).control_endpoint(), c);
    s->set_subscription_form(hermes::student_form("carol", "standard"));
    return s;
  }

  sim::Simulator sim_;
  hermes::Deployment deployment_;
};

TEST_F(CrashFixture, CrashJournalsSessionsAndReleasesAdmission) {
  auto s = session();
  s->connect("carol", "secret-carol");
  s->queue_document("lesson");
  sim_.run_until(Time::sec(3));
  ASSERT_EQ(s->state(), ClientState::kViewing) << s->last_error();
  auto& server = deployment_.server(0);
  EXPECT_GT(server.admission().reserved_bps(), 0.0);

  server.crash();
  EXPECT_TRUE(server.crashed());
  EXPECT_EQ(server.live_session_count(), 0u);
  EXPECT_DOUBLE_EQ(server.admission().reserved_bps(), 0.0);
  EXPECT_EQ(server.stats().crashes, 1);
  ASSERT_EQ(server.journal().size(), 1u);
  const auto& entry = server.journal().front();
  EXPECT_EQ(entry.user, "carol");
  EXPECT_EQ(entry.document, "lesson");
  // ~2s of an 8s lecture had been paced when the power went out.
  EXPECT_GT(entry.position_us, Time::sec(1).us());
  EXPECT_LT(entry.position_us, Time::sec(8).us());

  // While crashed, new connections go unanswered (no listener).
  auto again = session();
  again->connect("carol", "secret-carol");
  sim_.run_until(Time::sec(5));
  EXPECT_NE(again->state(), ClientState::kBrowsing);

  // Restart serves from durable stores; a fresh session works end to end.
  server.restart();
  EXPECT_FALSE(server.crashed());
  EXPECT_EQ(server.stats().restarts, 1);
  auto fresh = session();
  fresh->connect("carol", "secret-carol");
  fresh->queue_document("lesson");
  sim_.run_until(Time::sec(8));
  EXPECT_EQ(fresh->state(), ClientState::kViewing) << fresh->last_error();
}

TEST_F(CrashFixture, CrashWhileIdleJournalsNothing) {
  auto& server = deployment_.server(0);
  server.crash();
  EXPECT_TRUE(server.journal().empty());
  server.restart();
  server.restart();  // double restart is a no-op
  EXPECT_EQ(server.stats().restarts, 1);
  server.restart();
  EXPECT_EQ(server.stats().restarts, 1);
}

// Satellite (a): a suspended session's keepalive timer must die with the
// session. Regression: suspend -> disconnect -> timer fire used to touch the
// torn-down session (ASan job would flag the use-after-free).
TEST_F(CrashFixture, SuspendThenDisconnectCancelsKeepaliveTimer) {
  auto s = session();
  s->connect("carol", "secret-carol");
  sim_.run_until(Time::sec(1));
  ASSERT_EQ(s->state(), ClientState::kBrowsing) << s->last_error();
  s->suspend();
  sim_.run_until(Time::msec(1500));
  ASSERT_EQ(s->state(), ClientState::kSuspended);

  // Teardown path: client disconnects while the keepalive timer is armed.
  s->disconnect();
  sim_.run_until(Time::sec(6));  // well past suspend_keepalive = 2s
  EXPECT_EQ(deployment_.server(0).stats().suspend_expiries, 0);
  EXPECT_EQ(deployment_.server(0).live_session_count(), 0u);
}

// --- End-to-end recovery ----------------------------------------------------------

bool logged(const BrowserSession& s, const std::string& what) {
  for (const auto& event : s.event_log()) {
    if (event.find(what) != std::string::npos) return true;
  }
  return false;
}

/// Differential recovery: a session hit by a mid-stream link flap must detect
/// the outage, re-establish, resume at the last playout position, and finish.
TEST_F(CrashFixture, MidStreamLinkFlapResumesAtLastPosition) {
  auto s = session(bench::chaos_session_config(false));
  s->connect("carol", "secret-carol");
  s->queue_document("lesson");

  // The outage must outlast the liveness window (2s) or the buffers simply
  // absorb it and no recovery is needed — which is itself by design.
  net::FaultPlan plan;
  net::FaultEvent down;
  down.at = Time::sec(3);
  down.kind = net::FaultKind::kLinkDown;
  down.a = deployment_.router();
  down.b = deployment_.client_node(0);
  plan.add(down);
  net::FaultEvent up = down;
  up.at = Time::msec(6500);
  up.kind = net::FaultKind::kLinkUp;
  plan.add(up);
  net::FaultInjector injector(deployment_.network());
  injector.arm(plan);

  sim_.run_until(Time::sec(40));

  EXPECT_GE(s->recovery_count(), 1);
  EXPECT_EQ(s->outcome(), QoeOutcome::kCompleted)
      << to_string(s->outcome()) << ": " << s->last_error();
  // ~2.5s of content had played before the outage; the resumed setup must
  // carry that position (not restart from zero, not skip to the end).
  EXPECT_GE(s->resume_position(), Time::sec(1));
  EXPECT_LT(s->resume_position(), Time::sec(8));
  ASSERT_NE(s->presentation(), nullptr);
  EXPECT_TRUE(s->presentation()->scheduler().finished());

  EXPECT_TRUE(logged(*s, "recovery: resumed lesson"));
}

/// Server crash mid-stream: the client's liveness detection notices the dead
/// flows, reconnects once the server restarts, re-runs admission, resumes.
TEST_F(CrashFixture, ServerCrashRestartRecovers) {
  auto s = session(bench::chaos_session_config(false));
  s->connect("carol", "secret-carol");
  s->queue_document("lesson");

  net::FaultInjector injector(deployment_.network());
  auto& server = deployment_.server(0);
  const int idx = injector.register_server(
      "hermes-1", [&server] { server.crash(); },
      [&server] { server.restart(); });
  net::FaultPlan plan;
  net::FaultEvent crash;
  crash.at = Time::sec(3);
  crash.kind = net::FaultKind::kServerCrash;
  crash.server = idx;
  plan.add(crash);
  crash.at = Time::sec(6);
  crash.kind = net::FaultKind::kServerRestart;
  plan.add(crash);
  injector.arm(plan);

  sim_.run_until(Time::sec(60));
  EXPECT_EQ(server.stats().crashes, 1);
  EXPECT_GE(s->recovery_count(), 1);
  EXPECT_EQ(s->outcome(), QoeOutcome::kCompleted)
      << to_string(s->outcome()) << ": " << s->last_error();
  EXPECT_GE(s->resume_position(), Time::sec(1));
}

// --- Re-admission refused after an outage -----------------------------------------

/// One 0.53 Mbps lecture reservation fits under the 0.85 Mbps standard-tier
/// ceiling of a 1 Mbps server; two do not.
class ReadmissionFixture : public CrashFixture {
 protected:
  ReadmissionFixture() : CrashFixture(one_lecture_server()) {}

  static hermes::Deployment::Config one_lecture_server() {
    hermes::Deployment::Config c;
    c.server_template.admission.capacity_bps = 1e6;
    return c;
  }

  /// The outage hits before the first DocumentReply: the request reaches the
  /// server, which grants it, but the reply is lost on the downed downlink.
  /// The client times out and reconnects with `current_document()` still
  /// empty, and the server's old connection keeps the first grant's
  /// reservation, so re-admission is refused.
  std::unique_ptr<BrowserSession> run_outage_before_first_reply(
      Time patience) {
    auto c = bench::chaos_session_config(false);
    c.recovery.admission_patience = patience;
    auto s = session(c);
    s->connect("carol", "secret-carol");
    sim_.run_until(Time::sec(1));
    EXPECT_EQ(s->state(), ClientState::kBrowsing) << s->last_error();

    net::Link* downlink = deployment_.client_downlink(0);
    downlink->set_up(false);
    s->request_document("lesson");
    sim_.run_until(Time::sec(5));
    downlink->set_up(true);
    sim_.run_until(Time::sec(90));
    return s;
  }
};

/// A refused re-admission goes through the one admission-retry policy: it
/// retries the interrupted request (`current_document()` is still empty
/// here, so a retry of it would fire into nothing and leave the session
/// kPending in kBrowsing) and ends typed when its budget runs out.
TEST_F(ReadmissionFixture, RefusedReadmissionRetriesThenEndsTyped) {
  const auto s = run_outage_before_first_reply(Time::sec(60));
  EXPECT_TRUE(logged(*s, "recovery: re-requesting lesson"));
  EXPECT_EQ(s->outcome(), QoeOutcome::kAborted)
      << to_string(s->outcome()) << " in " << to_string(s->state());
  EXPECT_EQ(s->admission_retries(), 6);
  EXPECT_TRUE(logged(*s, "overload: giving up on admission"));
  ASSERT_FALSE(s->last_status().ok());
  EXPECT_EQ(s->last_status().error().code,
            util::Error::Code::kAdmissionRejected);
}

/// Without admission patience the first refused re-admission is terminal.
TEST_F(ReadmissionFixture, RefusedReadmissionWithoutPatienceEndsAtOnce) {
  const auto s = run_outage_before_first_reply(Time::zero());
  EXPECT_TRUE(logged(*s, "recovery: re-requesting lesson"));
  EXPECT_EQ(s->outcome(), QoeOutcome::kAborted)
      << to_string(s->outcome()) << " in " << to_string(s->state());
  EXPECT_EQ(s->admission_retries(), 0);
  ASSERT_FALSE(s->last_status().ok());
  EXPECT_EQ(s->last_status().error().code,
            util::Error::Code::kAdmissionRejected);
}

// --- Randomized chaos sweep -------------------------------------------------------

struct ChaosRun {
  QoeOutcome outcome = QoeOutcome::kPending;
  int recoveries = 0;
  int degradations = 0;
  std::int64_t faults_injected = 0;
  std::uint64_t fingerprint = 0;
};

std::uint64_t fnv64(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv64(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ull;
  }
  return h;
}

ChaosRun run_chaos_session(std::uint64_t seed) {
  sim::Simulator sim(seed);
  hermes::Deployment deployment(sim, bench::chaos_deployment_config());
  deployment.server(0).documents().add("lesson", bench::lecture_markup(8));

  BrowserSession session(deployment.network(), deployment.client_node(0),
                         deployment.server(0).control_endpoint(),
                         bench::chaos_session_config(false));
  session.set_subscription_form(hermes::student_form("chaos", "standard"));
  session.connect("chaos", "secret-chaos");
  session.queue_document("lesson");

  net::FaultInjector injector(deployment.network());
  auto& server = deployment.server(0);
  injector.register_server(
      "hermes-1", [&server] { server.crash(); },
      [&server] { server.restart(); });

  const auto plan = net::make_random_plan(
      seed, bench::chaos_profile(false),
      {{deployment.router(), deployment.client_node(0)},
       {deployment.router(), deployment.server_node(0)}},
      {deployment.client_node(0)}, 1);
  injector.arm(plan);

  // Drive until the session reaches a typed terminal outcome (the invariant
  // under test: no chaos plan may leave a session hanging).
  const Time horizon = Time::sec(180);
  while (sim.now() < horizon &&
         session.outcome() == QoeOutcome::kPending) {
    sim.run_until(sim.now() + Time::sec(1));
  }

  ChaosRun run;
  run.outcome = session.outcome();
  run.recoveries = session.recovery_count();
  run.degradations = session.floor_degradations();
  run.faults_injected = injector.stats().injected;

  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv64(h, plan.summary());
  for (const auto& event : session.event_log()) h = fnv64(h, event);
  h = fnv64(h, static_cast<std::int64_t>(run.outcome));
  h = fnv64(h, run.recoveries);
  h = fnv64(h, run.degradations);
  h = fnv64(h, run.faults_injected);
  h = fnv64(h, server.stats().crashes);
  h = fnv64(h, server.stats().dead_peer_teardowns);
  h = fnv64(h, sim.now().us());
  if (session.presentation() != nullptr) {
    h = fnv64(h, session.presentation()->stats().frames_received);
    h = fnv64(h, session.presentation()->stats().objects_fetched);
  }
  run.fingerprint = h;
  return run;
}

int chaos_seed_count() {
  if (const char* env = std::getenv("HYMS_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// The acceptance sweep: >= 200 randomized fault plans, each run twice.
/// Invariants: every session reaches a typed terminal outcome, and the
/// per-seed fingerprint is byte-identical across the two runs.
TEST(ChaosSweepTest, RandomizedPlansTerminateDeterministically) {
  const int seeds = chaos_seed_count();
  int completed = 0, degraded = 0, aborted = 0, with_recovery = 0;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 10'000 + static_cast<std::uint64_t>(i);
    const ChaosRun first = run_chaos_session(seed);
    const ChaosRun second = run_chaos_session(seed);
    ASSERT_EQ(first.fingerprint, second.fingerprint)
        << "seed " << seed << " is not reproducible";
    ASSERT_NE(first.outcome, QoeOutcome::kPending)
        << "seed " << seed << " left the session hanging";
    switch (first.outcome) {
      case QoeOutcome::kCompleted: ++completed; break;
      case QoeOutcome::kDegraded: ++degraded; break;
      case QoeOutcome::kAborted: ++aborted; break;
      case QoeOutcome::kPending: break;
    }
    if (first.recoveries > 0) ++with_recovery;
  }
  ::testing::Test::RecordProperty("completed", completed);
  ::testing::Test::RecordProperty("aborted", aborted);
  // The sweep is only meaningful if faults actually bite and most sessions
  // still deliver the presentation.
  EXPECT_GT(with_recovery, seeds / 4)
      << "chaos plans barely disturbed the sessions";
  EXPECT_GE(completed + degraded, seeds * 6 / 10)
      << "completed=" << completed << " degraded=" << degraded
      << " aborted=" << aborted;
}

}  // namespace
}  // namespace hyms
