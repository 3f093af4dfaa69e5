// End-to-end causal tracing, the QoE/SLO plane, and the flight recorder:
//  - the wire trace envelope round-trips contexts and is byte-identical
//    traced or bare;
//  - a full client-server session's flow events stitch into one connected
//    causal tree (client session -> server session -> stream -> playout);
//  - the flight recorder dumps on abnormal outcomes and frees on completed,
//    idempotently;
//  - SLO percentile math at the edge sample counts, and the commutative
//    record merge;
//  - QoE collection is passive: fingerprints match a bare run.
// Partitioned QoE export identity is checked by test_population's sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "client/browser_session.hpp"
#include "harness.hpp"
#include "hermes/deployment.hpp"
#include "hermes/sample_content.hpp"
#include "proto/messages.hpp"
#include "sim/simulator.hpp"
#include "telemetry/qoe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace hyms {
namespace {

using telemetry::Phase;
using telemetry::QoeCollector;
using telemetry::QoeOutcome;
using telemetry::QoeRecord;
using telemetry::SloTargets;
using telemetry::TraceContext;

// --- wire envelope ------------------------------------------------------------

TEST(TraceEnvelope, RoundTripsContext) {
  const proto::Message msg = proto::DocumentRequest{"lesson"};
  const TraceContext ctx{7, 42};
  const net::Payload frame = proto::encode(msg, ctx);

  TraceContext got;
  const auto decoded = proto::decode(frame, &got);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(got.trace_id, 7u);
  EXPECT_EQ(got.span_id, 42u);
  EXPECT_TRUE(got.valid());
  EXPECT_EQ(proto::message_name(decoded.value()), "DocumentRequest");
}

TEST(TraceEnvelope, UntracedFramesAreByteIdentical) {
  const proto::Message msg = proto::ConnectRequest{"alice", "secret"};
  // The envelope is always present; context {0,0} == the bare overload.
  EXPECT_EQ(proto::encode(msg), proto::encode(msg, TraceContext{}));

  TraceContext got{9, 9};
  ASSERT_TRUE(proto::decode(proto::encode(msg), &got).ok());
  EXPECT_FALSE(got.valid());
  EXPECT_EQ(got.trace_id, 0u);
}

TEST(TraceEnvelope, FlowIdPacksTraceAndSpan) {
  const TraceContext ctx{3, 0x012345u};
  EXPECT_EQ(ctx.flow_id(), (std::uint64_t{3} << 24) | 0x012345u);
  // Flow ids must survive the double round-trip through Chrome JSON.
  EXPECT_EQ(static_cast<std::uint64_t>(static_cast<double>(ctx.flow_id())),
            ctx.flow_id());
}

// --- causal tree of a full session --------------------------------------------

TEST(CausalTrace, SessionFormsOneConnectedTree) {
  sim::Simulator sim(777);
  telemetry::Hub hub;
  hub.set_tracing(true);
  sim.set_telemetry(&hub);

  hermes::Deployment deployment(sim, {});
  ASSERT_TRUE(deployment.server(0)
                  .documents()
                  .add("lesson", bench::lecture_markup(3))
                  .ok());
  client::BrowserSession session(deployment.network(),
                                 deployment.client_node(0),
                                 deployment.server(0).control_endpoint(), {});
  session.set_subscription_form(hermes::student_form("alice", "standard"));
  session.connect("alice", "secret-alice");
  session.queue_document("lesson");
  sim.run_until(Time::sec(8));
  ASSERT_EQ(session.outcome(), QoeOutcome::kCompleted);
  ASSERT_NE(session.trace_id(), 0u);

  // Group flow records by flow id; every id must belong to this session's
  // trace, open with exactly one start on the client's session track, and
  // close with at most one end.
  const auto& tracer = hub.tracer();
  struct Flow {
    int starts = 0, steps = 0, ends = 0;
    std::set<std::string> tracks;
    std::string start_track, end_track;
  };
  std::map<std::uint64_t, Flow> flows;
  for (const auto& rec : tracer.records()) {
    if (rec.phase != Phase::kFlowStart && rec.phase != Phase::kFlowStep &&
        rec.phase != Phase::kFlowEnd) {
      continue;
    }
    const auto id = static_cast<std::uint64_t>(rec.value);
    Flow& flow = flows[id];
    const std::string& track = tracer.track_name(rec.track);
    flow.tracks.insert(track);
    if (rec.phase == Phase::kFlowStart) {
      ++flow.starts;
      flow.start_track = track;
    } else if (rec.phase == Phase::kFlowStep) {
      ++flow.steps;
    } else {
      ++flow.ends;
      flow.end_track = track;
    }
  }
  ASSERT_GE(flows.size(), 4u);  // connect, subscribe, document, setup, ...

  bool saw_cross_layer = false;
  bool saw_playout_end = false;
  for (const auto& [id, flow] : flows) {
    EXPECT_EQ(id >> 24, session.trace_id()) << "foreign trace in the tree";
    EXPECT_EQ(flow.starts, 1);
    EXPECT_LE(flow.ends, 1);
    EXPECT_EQ(flow.start_track, "client/alice/session");
    // A request that reached the server spans at least two tracks.
    if (flow.tracks.size() >= 3) saw_cross_layer = true;
    if (flow.end_track.rfind("client/playout/", 0) == 0) {
      saw_playout_end = true;
    }
  }
  // The StreamSetup flow must cross client -> server session -> stream
  // tracks and terminate at the first playout slot.
  EXPECT_TRUE(saw_cross_layer);
  EXPECT_TRUE(saw_playout_end);
}

// --- flight recorder ----------------------------------------------------------

TEST(FlightRecorder, DumpsOnAbortFreesOnComplete) {
  QoeCollector qoe;
  qoe.session(1, "good");
  qoe.session(2, "bad");
  qoe.note_event(1, Time::msec(10), "connected");
  qoe.note_event(2, Time::msec(11), "connected");
  qoe.note_world_event(Time::msec(15), "fault: link_down a=1 b=2");
  qoe.note_event(2, Time::msec(20), "recovery attempt 1");

  qoe.seal(1, QoeOutcome::kCompleted);
  EXPECT_TRUE(qoe.find(1)->black_box.empty());  // ring freed, nothing dumped
  EXPECT_EQ(qoe.ring_size(1), 0u);

  qoe.seal(2, QoeOutcome::kAborted);
  const auto& box = qoe.find(2)->black_box;
  ASSERT_EQ(box.size(), 3u);  // 2 session events + 1 world event, in order
  EXPECT_NE(box[0].find("connected"), std::string::npos);
  EXPECT_NE(box[1].find("world: fault: link_down"), std::string::npos);
  EXPECT_NE(box[2].find("recovery attempt 1"), std::string::npos);
}

TEST(FlightRecorder, RingBoundsAndDropCount) {
  QoeCollector qoe;
  qoe.set_ring_capacity(3);
  qoe.session(5, "ring");
  for (int i = 0; i < 7; ++i) {
    qoe.note_event(5, Time::msec(i), "event " + std::to_string(i));
  }
  EXPECT_EQ(qoe.ring_size(5), 3u);
  qoe.seal(5, QoeOutcome::kDegraded);
  const auto& box = qoe.find(5)->black_box;
  ASSERT_EQ(box.size(), 4u);  // drop marker + the 3 newest events
  EXPECT_NE(box[0].find("4 earlier events dropped"), std::string::npos);
  EXPECT_NE(box[1].find("event 4"), std::string::npos);
  EXPECT_NE(box[3].find("event 6"), std::string::npos);
}

TEST(FlightRecorder, SealIsIdempotent) {
  QoeCollector qoe;
  qoe.session(9, "twice");
  qoe.note_event(9, Time::msec(1), "only event");
  qoe.seal(9, QoeOutcome::kDegraded);
  const std::size_t dumped = qoe.find(9)->black_box.size();
  ASSERT_GT(dumped, 0u);
  // Later seals may worsen the outcome but never re-dump.
  qoe.seal(9, QoeOutcome::kAborted);
  EXPECT_EQ(qoe.find(9)->black_box.size(), dumped);
  EXPECT_EQ(qoe.find(9)->outcome, QoeOutcome::kAborted);

  // A completed-then-degraded session keeps its freed (empty) ring: the
  // events are gone, so the late degrade records outcome only.
  qoe.session(10, "late");
  qoe.note_event(10, Time::msec(2), "gone after completed seal");
  qoe.seal(10, QoeOutcome::kCompleted);
  qoe.seal(10, QoeOutcome::kDegraded);
  EXPECT_TRUE(qoe.find(10)->black_box.empty());
  EXPECT_EQ(qoe.find(10)->outcome, QoeOutcome::kDegraded);
}

// --- SLO math -----------------------------------------------------------------

TEST(SloMath, PercentileEdgeCases) {
  const auto empty = telemetry::slo_stat({});
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.p99, 0.0);

  const auto one = telemetry::slo_stat({42.0});
  EXPECT_EQ(one.samples, 1u);
  EXPECT_EQ(one.p50, 42.0);
  EXPECT_EQ(one.p99, 42.0);
  EXPECT_EQ(one.max, 42.0);

  // Linear interpolation on the sorted sample, numpy-style.
  const auto two = telemetry::slo_stat({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.p50, 1.5);
  EXPECT_DOUBLE_EQ(two.p95, 1.95);

  const auto five = telemetry::slo_stat({50.0, 10.0, 40.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(five.p50, 30.0);
  EXPECT_DOUBLE_EQ(five.p95, 48.0);   // index 0.95 * 4 = 3.8
  EXPECT_DOUBLE_EQ(five.p99, 49.6);
  EXPECT_DOUBLE_EQ(five.mean, 30.0);
  EXPECT_DOUBLE_EQ(five.max, 50.0);
}

TEST(SloMath, ComplianceAndErrorBudget) {
  QoeCollector qoe;
  auto fill = [&](std::uint32_t id, double startup, double fresh,
                  QoeOutcome outcome) {
    QoeRecord& rec = qoe.session(id, "s" + std::to_string(id));
    rec.startup_ms = startup;
    rec.play_ms = 10'000.0;
    rec.fresh_slots = static_cast<std::int64_t>(fresh * 1000);
    rec.total_slots = 1000;
    rec.outcome = outcome;
  };
  fill(1, 100.0, 0.99, QoeOutcome::kCompleted);   // compliant
  fill(2, 3000.0, 0.99, QoeOutcome::kCompleted);  // startup too slow
  fill(3, 100.0, 0.50, QoeOutcome::kCompleted);   // fresh ratio too low
  fill(4, 100.0, 0.99, QoeOutcome::kAborted);     // wrong outcome

  const auto rep = qoe.report(SloTargets{});
  EXPECT_EQ(rep.sessions, 4u);
  EXPECT_EQ(rep.completed, 3);
  EXPECT_EQ(rep.aborted, 1);
  EXPECT_DOUBLE_EQ(rep.compliance, 0.25);
  // (1 - 0.25) / (1 - 0.99) = 75x the error budget.
  EXPECT_NEAR(rep.error_budget_burn, 75.0, 1e-9);
}

TEST(SloMath, AddMergesFieldDisjointFills) {
  // A partitioned split: the server partition contributes quality grading,
  // the client partition contributes delivery metrics. Merging the two
  // partial records must equal a single-collector fill, in either order.
  QoeRecord server_side;
  server_side.trace_id = 4;
  server_side.quality_changes = 2;
  server_side.level_slots[1] = 1;

  QoeRecord client_side;
  client_side.trace_id = 4;
  client_side.session = "world/client/3";
  client_side.startup_ms = 41.5;
  client_side.play_ms = 5000.0;
  client_side.fresh_slots = 120;
  client_side.total_slots = 125;
  client_side.outcome = QoeOutcome::kDegraded;

  for (const bool server_first : {true, false}) {
    QoeCollector qoe;
    qoe.add(server_first ? server_side : client_side);
    qoe.add(server_first ? client_side : server_side);
    const QoeRecord* rec = qoe.find(4);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->session, "world/client/3");
    EXPECT_EQ(rec->quality_changes, 2);
    EXPECT_EQ(rec->level_slots[1], 1);
    EXPECT_DOUBLE_EQ(rec->startup_ms, 41.5);
    EXPECT_EQ(rec->fresh_slots, 120);
    EXPECT_EQ(rec->outcome, QoeOutcome::kDegraded);
  }
}

// --- passivity ----------------------------------------------------------------

TEST(QoePassive, CollectionDoesNotPerturbOutcomes) {
  bench::SessionParams params;
  params.markup = bench::lecture_markup(4);
  params.seed = 3;
  params.run_for = Time::sec(20);
  params.bernoulli_loss = 0.02;  // make the run non-trivial

  const auto bare = bench::run_session(params);
  ASSERT_TRUE(bare.finished) << bare.error;
  params.collect_qoe = true;
  const auto observed = bench::run_session(params);

  EXPECT_EQ(bench::session_fingerprint(bare),
            bench::session_fingerprint(observed));
  EXPECT_EQ(observed.qoe.outcome, QoeOutcome::kCompleted);
  EXPECT_GT(observed.qoe.play_ms, 0.0);
  EXPECT_GE(observed.qoe.startup_ms, 0.0);
  EXPECT_GT(observed.qoe.total_slots, 0);
  EXPECT_TRUE(observed.qoe.black_box.empty());  // completed -> ring freed
}

}  // namespace
}  // namespace hyms
