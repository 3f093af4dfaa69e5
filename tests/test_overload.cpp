// Overload control under flash crowds: the admission wait queue's grant and
// expiry ordering, the pressure-aware degradation ladder, crash semantics
// for queued waiters (typed failure + no leaked deadline timers), the
// client's retry backoff math, and the population-level gates — byte-identity
// of the overload and chaos scenarios across partitions x threads, plus the
// goodput conversion the whole pipeline exists to buy.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "client/browser_session.hpp"
#include "hermes/population.hpp"
#include "server/admission.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hyms {
namespace {

using server::AdmissionControl;

AdmissionControl::Request make_request(const std::string& key,
                                       double demand_bps, int priority = 0) {
  AdmissionControl::Request request;
  request.key = key;
  request.priority = priority;
  request.ladder.push_back(AdmissionControl::Candidate{0, demand_bps});
  return request;
}

TEST(AdmissionQueue, GrantsInPriorityThenFifoOrder) {
  sim::Simulator sim(1);
  AdmissionControl::Config cfg;
  cfg.capacity_bps = 10e6;
  cfg.queue_limit = 8;
  cfg.queue_deadline = Time::sec(30);
  AdmissionControl adm(cfg, &sim);

  // Fill capacity, then park four waiters: two priority-0 (FIFO among
  // themselves), one priority-2, one priority-1.
  ASSERT_TRUE(adm.evaluate(make_request("tenant", 10e6)).admitted);
  std::vector<std::string> granted;
  const auto enqueue = [&](const std::string& key, int priority) {
    AdmissionControl::WaiterHooks hooks;
    hooks.on_grant = [&granted, key](const AdmissionControl::Decision&) {
      granted.push_back(key);
    };
    const auto d = adm.evaluate(make_request(key, 2e6, priority),
                                std::move(hooks));
    ASSERT_EQ(d.outcome, AdmissionControl::Outcome::kQueued);
  };
  enqueue("first-p0", 0);
  enqueue("second-p0", 0);
  enqueue("only-p2", 2);
  enqueue("only-p1", 1);
  EXPECT_EQ(adm.queue_depth(), 4u);

  adm.release("tenant");  // frees everything: all four fit now
  ASSERT_EQ(granted.size(), 4u);
  EXPECT_EQ(granted[0], "only-p2");
  EXPECT_EQ(granted[1], "only-p1");
  EXPECT_EQ(granted[2], "first-p0");
  EXPECT_EQ(granted[3], "second-p0");
  EXPECT_EQ(adm.queue_grants(), 4);
}

TEST(AdmissionQueue, HeadOfLineBlocksSmallerWaitersBehindIt) {
  sim::Simulator sim(1);
  AdmissionControl::Config cfg;
  cfg.capacity_bps = 10e6;
  cfg.queue_limit = 8;
  AdmissionControl adm(cfg, &sim);

  ASSERT_TRUE(adm.evaluate(make_request("tenant-a", 5e6)).admitted);
  ASSERT_TRUE(adm.evaluate(make_request("tenant-b", 3e6)).admitted);
  std::vector<std::string> granted;
  const auto enqueue = [&](const std::string& key, double demand) {
    AdmissionControl::WaiterHooks hooks;
    hooks.on_grant = [&granted, key](const AdmissionControl::Decision&) {
      granted.push_back(key);
    };
    const auto d = adm.evaluate(make_request(key, demand), std::move(hooks));
    ASSERT_EQ(d.outcome, AdmissionControl::Outcome::kQueued);
  };
  enqueue("big-head", 6e6);
  enqueue("small-behind", 3e6);

  // 5 Mbps spare after this release: the 3 Mbps waiter would fit, but the
  // 6 Mbps head blocks it — strict head-of-line keeps a stream of small
  // requests from starving the big one queued ahead of them.
  adm.release("tenant-b");
  EXPECT_TRUE(granted.empty());

  adm.release("tenant-a");
  ASSERT_EQ(granted.size(), 2u);
  EXPECT_EQ(granted[0], "big-head");
  EXPECT_EQ(granted[1], "small-behind");
}

TEST(AdmissionQueue, EqualDeadlinesExpireInEnqueueOrder) {
  sim::Simulator sim(1);
  AdmissionControl::Config cfg;
  cfg.capacity_bps = 1e6;
  cfg.queue_limit = 8;
  cfg.queue_deadline = Time::sec(2);
  AdmissionControl adm(cfg, &sim);
  ASSERT_TRUE(adm.evaluate(make_request("tenant", 1e6)).admitted);

  // All enqueued at t=0 with the same deadline; expiry events land on the
  // same timestamp and must fire FIFO (kernel schedule order), so timeout
  // callbacks observe deterministic queue depths.
  std::vector<std::string> expired;
  for (const char* key : {"w1", "w2", "w3"}) {
    AdmissionControl::WaiterHooks hooks;
    hooks.on_grant = [](const AdmissionControl::Decision&) {
      ADD_FAILURE() << "nothing releases capacity in this test";
    };
    hooks.on_timeout = [&expired, key](const AdmissionControl::Decision& d) {
      EXPECT_EQ(d.outcome, AdmissionControl::Outcome::kRejected);
      EXPECT_GT(d.retry_after_us, 0);
      expired.push_back(key);
    };
    const auto d = adm.evaluate(make_request(key, 5e5), std::move(hooks));
    ASSERT_EQ(d.outcome, AdmissionControl::Outcome::kQueued);
  }
  sim.run();
  ASSERT_EQ(expired.size(), 3u);
  EXPECT_EQ(expired[0], "w1");
  EXPECT_EQ(expired[1], "w2");
  EXPECT_EQ(expired[2], "w3");
  EXPECT_EQ(adm.queue_timeouts(), 3);
  EXPECT_EQ(adm.queue_depth(), 0u);
}

TEST(AdmissionLadder, PressureFlipsLadderToDeepestRungFirst) {
  sim::Simulator sim(1);
  AdmissionControl::Config cfg;
  cfg.capacity_bps = 10e6;
  cfg.queue_limit = 4;
  cfg.degrade_steps = 2;
  cfg.pressure_utilization = 0.5;
  AdmissionControl adm(cfg, &sim);

  const auto laddered = [](const std::string& key) {
    AdmissionControl::Request request;
    request.key = key;
    request.ladder.push_back(AdmissionControl::Candidate{0, 4e6});
    request.ladder.push_back(AdmissionControl::Candidate{1, 2e6});
    request.ladder.push_back(AdmissionControl::Candidate{2, 1e6});
    return request;
  };

  // Unloaded (2/10 reserved, below the 0.5 threshold): best rung wins at
  // full quality even though deeper rungs would also fit.
  ASSERT_TRUE(adm.evaluate(make_request("filler", 2e6)).admitted);
  auto d = adm.evaluate(laddered("calm"));
  EXPECT_EQ(d.outcome, AdmissionControl::Outcome::kAdmitted);
  EXPECT_EQ(d.degraded_notches, 0);
  adm.release("calm");
  adm.release("filler");

  // Under pressure (6/10 reserved >= 0.5 threshold) the full 4 Mbps rung
  // STILL fits — but the ladder flips to deepest-rung-first: compress this
  // arrival to 1 Mbps to keep headroom for the crowd behind it.
  ASSERT_TRUE(adm.evaluate(make_request("filler", 6e6)).admitted);
  d = adm.evaluate(laddered("pressed"));
  EXPECT_EQ(d.outcome, AdmissionControl::Outcome::kDegraded);
  EXPECT_EQ(d.degraded_notches, 2);
  EXPECT_EQ(adm.degraded_count(), 1);
  adm.release("pressed");
  adm.release("filler");
}

TEST(AdmissionLadder, PopulatedQueueForcesPressureAtLowUtilization) {
  sim::Simulator sim(1);
  AdmissionControl::Config cfg;
  cfg.capacity_bps = 10e6;
  cfg.queue_limit = 4;
  cfg.degrade_steps = 2;
  cfg.pressure_utilization = 0.95;  // utilization alone won't trip it below
  AdmissionControl adm(cfg, &sim);

  ASSERT_TRUE(adm.evaluate(make_request("filler", 6e6)).admitted);
  AdmissionControl::WaiterHooks hooks;
  hooks.on_grant = [](const AdmissionControl::Decision&) {};
  ASSERT_EQ(adm.evaluate(make_request("stuck", 9e6), std::move(hooks)).outcome,
            AdmissionControl::Outcome::kQueued);

  // Utilization is 6/10 < 0.95 and the 4 Mbps rung fits, but the populated
  // wait queue forces pressure: deepest rung first.
  AdmissionControl::Request request;
  request.key = "crowded";
  request.ladder.push_back(AdmissionControl::Candidate{0, 4e6});
  request.ladder.push_back(AdmissionControl::Candidate{1, 2e6});
  request.ladder.push_back(AdmissionControl::Candidate{2, 1e6});
  const auto d = adm.evaluate(request);
  EXPECT_EQ(d.outcome, AdmissionControl::Outcome::kDegraded);
  EXPECT_EQ(d.degraded_notches, 2);
}

TEST(AdmissionQueue, RetryAfterHintIsCapped) {
  sim::Simulator sim(1);
  AdmissionControl::Config cfg;
  cfg.capacity_bps = 1e6;
  cfg.queue_limit = 64;
  AdmissionControl adm(cfg, &sim);
  ASSERT_TRUE(adm.evaluate(make_request("tenant", 1e6)).admitted);

  AdmissionControl::WaiterHooks keep;
  keep.on_grant = [](const AdmissionControl::Decision&) {};
  for (int i = 0; i < 64; ++i) {
    AdmissionControl::WaiterHooks hooks;
    hooks.on_grant = [](const AdmissionControl::Decision&) {};
    adm.evaluate(make_request("w" + std::to_string(i), 5e5),
                 std::move(hooks));
  }
  ASSERT_EQ(adm.queue_depth(), 64u);
  // Queue full: rejected with a hint. Uncapped it would be 400ms * 65 = 26s
  // — far past any client patience. The cap keeps "come back later" real.
  const auto d = adm.evaluate(make_request("overflow", 5e5));
  EXPECT_EQ(d.outcome, AdmissionControl::Outcome::kRejected);
  EXPECT_EQ(d.retry_after_us, Time::sec(3).us());
}

TEST(AdmissionCrash, FailWaitersIsTypedAndLeaksNoDeadlineTimers) {
  sim::Simulator sim(1);
  AdmissionControl::Config cfg;
  cfg.capacity_bps = 1e6;
  cfg.queue_limit = 8;
  cfg.queue_deadline = Time::sec(4);
  AdmissionControl adm(cfg, &sim);
  ASSERT_TRUE(adm.evaluate(make_request("tenant", 1e6)).admitted);

  int failed = 0;
  for (int i = 0; i < 3; ++i) {
    AdmissionControl::WaiterHooks hooks;
    hooks.on_grant = [](const AdmissionControl::Decision&) {};
    hooks.on_timeout = [](const AdmissionControl::Decision&) {
      FAIL() << "a failed waiter must never also time out";
    };
    hooks.on_failed = [&failed](const util::Error& error) {
      EXPECT_EQ(error.code, util::Error::Code::kNetwork);
      ++failed;
    };
    adm.evaluate(make_request("w" + std::to_string(i), 5e5),
                 std::move(hooks));
  }

  // Crash at t=0.5s with the queue populated, then run PAST every queued
  // deadline: the regression this guards is a deadline timer surviving the
  // crash and firing a timeout into the (re)started server's accounting.
  sim.schedule_at(Time::msec(500), [&] {
    adm.fail_waiters(util::Error{util::Error::Code::kNetwork,
                                 "server crashed: admission queue lost"});
    adm.reset();
  });
  sim.run_until(Time::sec(30));

  EXPECT_EQ(failed, 3);
  EXPECT_EQ(adm.waiters_failed(), 3);
  EXPECT_EQ(adm.queue_timeouts(), 0);
  EXPECT_EQ(adm.queue_depth(), 0u);
}

TEST(RetryBackoff, ExactWithReplayedJitterAndBounded) {
  client::RecoveryConfig rc;
  rc.backoff_initial = Time::msec(400);
  rc.backoff_cap = Time::sec(5);
  util::Rng rng(7);
  using client::BrowserSession;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // The jitter is one uniform draw: replay it from a copy of the RNG.
    util::Rng replay = rng;
    const Time d = BrowserSession::backoff_for(rc, attempt, rng);
    double base_us = static_cast<double>(Time::msec(400).us());
    for (int i = 0; i < attempt; ++i) base_us *= 2.0;
    base_us = std::min(base_us, static_cast<double>(Time::sec(5).us()));
    const double jittered_us =
        base_us * (1.0 + 0.3 * (2.0 * replay.uniform() - 1.0));
    EXPECT_EQ(d, Time::usec(static_cast<std::int64_t>(jittered_us)))
        << "attempt " << attempt;
    EXPECT_EQ(replay.next_u64(), rng.next_u64())
        << "backoff_for must draw exactly one uniform";
    EXPECT_GE(static_cast<double>(d.us()), 0.7 * base_us - 1.0);
    EXPECT_LE(static_cast<double>(d.us()), 1.3 * base_us + 1.0);
  }

  util::Rng a(42);
  util::Rng b(42);
  EXPECT_EQ(BrowserSession::backoff_for(rc, 40, a),
            BrowserSession::backoff_for(rc, 40, b))
      << "same RNG state must give the same jitter";
}

// --- population-level gates --------------------------------------------------

hermes::PopulationConfig overload_population(std::uint64_t seed) {
  hermes::PopulationConfig cfg;
  cfg.sessions = 48;
  cfg.servers = 2;
  cfg.documents = 6;
  cfg.seed = seed;
  cfg.arrival_window = Time::sec(6);
  cfg.run_for = Time::sec(20);
  cfg.doc_seconds = 4;
  cfg.overload_control = true;
  // Tight fleet: ~4 full-quality viewers per server, so the flash crowd
  // genuinely overloads admission at this small session count.
  cfg.server_template.admission.capacity_bps = 6e6;
  return cfg;
}

TEST(OverloadPopulation, ByteIdenticalAcrossPartitionsThreadsAndReruns) {
  auto cfg = overload_population(11);
  cfg.partitions = 1;
  const hermes::PopulationResult seq = hermes::run_population(cfg, 1);
  ASSERT_GT(seq.queued_total + seq.admission_retries, 0)
      << "scenario must actually exercise the overload machinery";

  // Double-run: the whole pipeline (jitter forks included) is a pure
  // function of the config.
  const hermes::PopulationResult again = hermes::run_population(cfg, 1);
  EXPECT_EQ(again.fingerprint, seq.fingerprint);
  EXPECT_EQ(again.events_csv, seq.events_csv);
  EXPECT_EQ(again.qoe_json, seq.qoe_json);

  for (const std::uint32_t partitions : {2u, 4u}) {
    for (const int threads : {1, 2, 4}) {
      cfg.partitions = partitions;
      const hermes::PopulationResult par = hermes::run_population(cfg,
                                                                  threads);
      EXPECT_EQ(par.fingerprint, seq.fingerprint)
          << "p" << partitions << " t" << threads;
      EXPECT_EQ(par.events_csv, seq.events_csv)
          << "p" << partitions << " t" << threads;
      EXPECT_EQ(par.qoe_json, seq.qoe_json)
          << "p" << partitions << " t" << threads;
    }
  }
}

TEST(OverloadPopulation, ConvertsRejectionsIntoServedSessions) {
  auto base = overload_population(11);
  base.overload_control = false;
  base.run_for = Time::sec(20);
  const hermes::PopulationResult off = hermes::run_population(base, 1);
  ASSERT_GT(off.rejected, 0) << "baseline must actually overload";

  const auto cfg = overload_population(11);
  const hermes::PopulationResult on = hermes::run_population(cfg, 1);
  // The pipeline's reason to exist: at least half of the baseline's
  // admission-rejected fates finish (completed or degraded) instead.
  EXPECT_GE((on.completed + on.degraded) - (off.completed + off.degraded),
            (off.rejected + 1) / 2)
      << "overload control must convert rejected fates into served ones";
  EXPECT_LT(on.rejected, off.rejected);
  EXPECT_GT(on.queue_grants, 0);
}

TEST(ChaosPopulation, FaultPlanOnPartitionedPopulationIsByteIdentical) {
  auto cfg = overload_population(5);
  cfg.chaos = true;
  cfg.partitions = 1;
  const hermes::PopulationResult seq = hermes::run_population(cfg, 1);
  EXPECT_GT(seq.faults_injected, 0) << "the chaos plan must actually fire";

  for (const int threads : {1, 2, 4}) {
    cfg.partitions = 2;
    const hermes::PopulationResult par = hermes::run_population(cfg, threads);
    EXPECT_EQ(par.fingerprint, seq.fingerprint) << "t" << threads;
    EXPECT_EQ(par.events_csv, seq.events_csv) << "t" << threads;
    EXPECT_EQ(par.qoe_json, seq.qoe_json) << "t" << threads;
    EXPECT_EQ(par.faults_injected, seq.faults_injected) << "t" << threads;
  }
}

}  // namespace
}  // namespace hyms
