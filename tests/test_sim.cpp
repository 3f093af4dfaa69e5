#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace hyms {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::msec(30), [&] { order.push_back(3); });
  sim.schedule_at(Time::msec(10), [&] { order.push_back(1); });
  sim.schedule_at(Time::msec(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::msec(30));
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  sim::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(Time::msec(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  sim::Simulator sim;
  Time fired;
  sim.schedule_at(Time::msec(100), [&] {
    sim.schedule_after(Time::msec(50), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, Time::msec(150));
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  sim::Simulator sim;
  Time fired = Time::max();
  sim.schedule_at(Time::msec(100), [&] {
    sim.schedule_at(Time::msec(10), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, Time::msec(100));
}

TEST(SimulatorTest, NegativeDelayClamps) {
  sim::Simulator sim;
  bool fired = false;
  sim.schedule_after(Time::usec(-500), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(SimulatorTest, CancelPreventsExecution) {
  sim::Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(Time::msec(10), [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  sim.cancel(id);
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  sim::Simulator sim;
  int count = 0;
  const auto id = sim.schedule_at(Time::msec(1), [&] { ++count; });
  sim.run();
  EXPECT_FALSE(sim.pending(id));
  sim.cancel(id);  // must not throw or corrupt anything
  sim.schedule_at(Time::msec(2), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop) {
  sim::Simulator sim;
  sim.cancel(sim::kNoEvent);
  sim.cancel(987654);
  EXPECT_FALSE(sim.pending(987654));
}

TEST(SimulatorTest, CancelledIdStaysDeadAfterSlotReuse) {
  // The kernel recycles event slots through a free list; a cancelled id must
  // never come back to life when its slot is re-occupied by a new event.
  sim::Simulator sim;
  const auto stale = sim.schedule_at(Time::msec(5), [] {});
  sim.cancel(stale);
  EXPECT_FALSE(sim.pending(stale));
  // The freed slot is the head of the free list, so the very next schedule
  // reuses it.
  bool fired = false;
  const auto fresh = sim.schedule_at(Time::msec(6), [&] { fired = true; });
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(sim.pending(stale));  // generation mismatch, not the new event
  EXPECT_TRUE(sim.pending(fresh));
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StaleIdFromFiredEventCannotCancelNewOccupant) {
  // An id retained past its event's firing must be inert: cancelling it after
  // the slot has a new occupant must not kill the occupant.
  sim::Simulator sim;
  int first = 0;
  const auto stale = sim.schedule_at(Time::msec(1), [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  int second = 0;
  const auto fresh = sim.schedule_at(Time::msec(2), [&] { ++second; });
  sim.cancel(stale);  // fired long ago; its slot now belongs to `fresh`
  EXPECT_TRUE(sim.pending(fresh));
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(SimulatorTest, IdsStayDistinctAcrossHeavyReuse) {
  // Churn one slot through many occupancies: every handle the simulator hands
  // out must be distinct from all previous ones (the generation advances).
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    const auto id = sim.schedule_at(Time::msec(i), [] {});
    for (const auto prev : ids) EXPECT_NE(prev, id);
    ids.push_back(id);
    sim.cancel(id);
  }
  for (const auto id : ids) EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  sim::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::msec(10), [&] { order.push_back(1); });
  sim.schedule_at(Time::msec(30), [&] { order.push_back(2); });
  sim.run_until(Time::msec(20));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), Time::msec(20));
  sim.run_until(Time::msec(40));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilIncludesDeadlineEvents) {
  sim::Simulator sim;
  bool fired = false;
  sim.schedule_at(Time::msec(20), [&] { fired = true; });
  sim.run_until(Time::msec(20));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, QueuedCountTracksLiveEvents) {
  sim::Simulator sim;
  const auto a = sim.schedule_at(Time::msec(1), [] {});
  sim.schedule_at(Time::msec(2), [] {});
  EXPECT_EQ(sim.queued(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.queued(), 1u);
  sim.run();
  EXPECT_EQ(sim.queued(), 0u);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  sim::Simulator sim;
  int count = 0;
  sim.schedule_at(Time::msec(1), [&] { ++count; });
  sim.schedule_at(Time::msec(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, EventBudgetTrips) {
  sim::Simulator sim;
  sim.set_event_budget(100);
  std::function<void()> loop = [&] { sim.schedule_after(Time::usec(1), loop); };
  sim.schedule_after(Time::usec(1), loop);
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulatorTest, DeterministicTraceForSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    std::vector<std::uint64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(Time::msec(sim.rng().range(0, 100)),
                      [&trace, &sim] { trace.push_back(sim.now().us() % 997); });
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(TimerTest, FiresAtDeadline) {
  sim::Simulator sim;
  sim::Timer timer(sim);
  std::vector<Time> fires;
  timer.arm_at(Time::msec(10), [&] { fires.push_back(sim.now()); });
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_FALSE(timer.armed());
  timer.arm_after(Time::msec(15), [&] { fires.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fires, (std::vector<Time>{Time::msec(10), Time::msec(25)}));
}

TEST(TimerTest, RearmReplacesPendingFiring) {
  sim::Simulator sim;
  sim::Timer timer(sim);
  int first = 0;
  int second = 0;
  timer.arm_at(Time::msec(10), [&] { ++first; });
  timer.arm_at(Time::msec(20), [&] { ++second; });
  EXPECT_EQ(sim.queued(), 1u);
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(sim.now(), Time::msec(20));
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(TimerTest, CancelAndDestructionBothCancel) {
  sim::Simulator sim;
  int count = 0;
  sim::Timer cancelled(sim);
  cancelled.arm_after(Time::msec(10), [&] { ++count; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.armed());
  cancelled.cancel();  // idempotent
  {
    sim::Timer destroyed(sim);
    destroyed.arm_after(Time::msec(10), [&] { ++count; });
  }
  EXPECT_EQ(sim.queued(), 0u);
  sim.run_until(Time::msec(100));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(sim.cancelled(), 2u);
}

TEST(TimerTest, CallbackMayRearmItsOwnTimer) {
  sim::Simulator sim;
  sim::Timer timer(sim);
  std::vector<Time> fires;
  std::function<void()> tick = [&] {
    fires.push_back(sim.now());
    timer.arm_after(Time::msec(10), [&] { tick(); });
  };
  timer.arm_after(Time::msec(10), [&] { tick(); });
  sim.run_until(Time::msec(35));
  EXPECT_EQ(fires, (std::vector<Time>{Time::msec(10), Time::msec(20),
                                      Time::msec(30)}));
  EXPECT_TRUE(timer.armed());
}

TEST(TimerTest, CallbackMayDestroyTheTimersOwner) {
  struct Owner {
    explicit Owner(sim::Simulator& sim) : timer(sim) {}
    sim::Timer timer;
    std::vector<int> payload = std::vector<int>(64, 7);
  };
  sim::Simulator sim;
  auto owner = std::make_unique<Owner>(sim);
  int seen = 0;
  // The callback frees the Timer it runs from; under ASan any touch of the
  // freed Timer after the call reports heap-use-after-free.
  owner->timer.arm_after(Time::msec(10), [&, raw = owner.get()] {
    seen = raw->payload[3];
    owner.reset();
  });
  sim.run();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(owner, nullptr);
  EXPECT_EQ(sim.queued(), 0u);
}

/// Property: under random schedule/cancel interleavings, every scheduled
/// event either fires exactly once or was cancelled exactly once, and the
/// queue drains to empty.
class SimCancelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimCancelProperty, EveryEventFiresOrWasCancelled) {
  sim::Simulator sim(GetParam());
  auto& rng = sim.rng();
  int fired = 0;
  int cancelled = 0;
  std::vector<sim::EventId> pending;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    if (!pending.empty() && rng.bernoulli(0.3)) {
      const auto pick = rng.below(pending.size());
      const auto id = pending[pick];
      if (sim.pending(id)) {
        sim.cancel(id);
        ++cancelled;
      }
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    pending.push_back(sim.schedule_at(Time::msec(rng.range(0, 1000)),
                                      [&fired] { ++fired; }));
  }
  sim.run();
  EXPECT_EQ(fired + cancelled, n);
  EXPECT_EQ(sim.queued(), 0u);
  EXPECT_EQ(sim.executed(), static_cast<std::size_t>(fired));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimCancelProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- edge cases the parallel executor leans on -------------------------------
// ParallelExec computes windows from next_event_time() and repeatedly calls
// run_until() on partitions that may have nothing to do; these pin down the
// sentinel, the inclusive deadline, and the monotone-clock contracts.

TEST(SimEdgeTest, NextEventTimeEmptyCalendarIsMaxSentinel) {
  sim::Simulator sim;
  EXPECT_EQ(sim.next_event_time(), Time::max());
  // A cancelled sole event must restore the sentinel (stale heap tops prune).
  const auto id = sim.schedule_at(Time::msec(5), [] {});
  EXPECT_EQ(sim.next_event_time(), Time::msec(5));
  sim.cancel(id);
  EXPECT_EQ(sim.next_event_time(), Time::max());
}

TEST(SimEdgeTest, EventExactlyAtDeadlineFiresWithinRunUntil) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::msec(10), [&] { ++fired; });
  sim.run_until(Time::msec(10));  // inclusive deadline
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::msec(10));
}

TEST(SimEdgeTest, EventScheduledAtDeadlineFromInsideTheRunStillFires) {
  // A window boundary is inclusive: an event at the deadline that schedules
  // another event at the same timestamp must see it execute in the same
  // run_until call (FIFO among equals), not leak into the next window.
  sim::Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::msec(10), [&] {
    order.push_back(1);
    sim.schedule_at(Time::msec(10), [&] { order.push_back(2); });
  });
  sim.run_until(Time::msec(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimEdgeTest, AdvanceNowIgnoresTimesBeforeNow) {
  sim::Simulator sim;
  sim.run_until(Time::msec(5));
  sim.advance_now(Time::msec(1));
  EXPECT_EQ(sim.now(), Time::msec(5));  // the clock is monotone
  sim.advance_now(Time::msec(7));
  EXPECT_EQ(sim.now(), Time::msec(7));
}

TEST(SimEdgeTest, RunUntilPastDeadlineClampsAndKeepsHorizonAtNow) {
  sim::Simulator sim;
  sim.run_until(Time::msec(10));
  int fired = 0;
  sim.schedule_at(Time::msec(12), [&] { ++fired; });
  // A deadline behind the clock must not regress now() nor leave the horizon
  // behind it (batched components compare arrivals against run_horizon()).
  sim.run_until(Time::msec(5));
  EXPECT_EQ(sim.now(), Time::msec(10));
  EXPECT_EQ(sim.run_horizon(), Time::msec(10));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.next_event_time(), Time::msec(12));
  sim.run_until(Time::msec(15));
  EXPECT_EQ(fired, 1);
}

TEST(SimEdgeTest, RepeatedRunUntilSameDeadlineIsIdempotent) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::msec(10), [&] { ++fired; });
  for (int i = 0; i < 3; ++i) sim.run_until(Time::msec(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.now(), Time::msec(10));
}

}  // namespace
}  // namespace hyms
