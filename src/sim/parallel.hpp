#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace hyms::sim {

/// Conservative (Chandy–Misra-style, barrier-windowed) parallel executor for
/// one shared simulation split into partitions. Each partition owns its own
/// slab-kernel Simulator; the executor advances all of them in lockstep
/// windows bounded by the cross-partition *lookahead*: if every message that
/// can cross a partition boundary is delayed by at least L (the minimum
/// cross-partition link propagation delay), then once the globally earliest
/// pending event sits at T_min, every event with timestamp < T_min + L is
/// unaffected by anything another partition has yet to do — the partitions
/// can run that window concurrently without coordination.
///
/// Cross-partition traffic goes through mailboxes. During a window, a
/// partition posts *injection thunks* — callbacks that, when run, schedule
/// the actual delivery events into the destination Simulator — into a
/// per-(src, dst) outbox it alone writes. Outboxes are double-buffered by
/// window parity: at the start of the next window, the thread that runs a
/// partition drains that partition's inbound boxes of the previous window
/// and runs their thunks in a canonical merge order: sorted by (earliest
/// delivery time, source partition, per-pair sequence). The order is a pure
/// function of simulation state, never of thread scheduling, so a run at any
/// thread count produces byte-identical results — the acceptance gate the
/// tests pin down.
///
/// One barrier separates windows. Its completion step, run once while every
/// thread is parked, flips the outbox parity and opens the next window from
/// the earliest time the partitions reported: each partition's next event
/// or the earliest mail it posted, whichever comes first. A thunk schedules
/// at or after its mail's `earliest`, so that minimum bounds every pending
/// event from below without injecting first.
///
/// Degenerate lookahead (a zero-latency cross-partition link) is still
/// correct: the window collapses to a single timestamp per round, which
/// serializes progress but keeps every delivery at its exact logical time.
class ParallelExec {
 public:
  ParallelExec() = default;
  ParallelExec(const ParallelExec&) = delete;
  ParallelExec& operator=(const ParallelExec&) = delete;

  /// Register a partition's Simulator. Returns the partition id. All
  /// partitions must be added before the first post()/run_until().
  std::uint32_t add_partition(Simulator& sim);

  /// Minimum delay of any cross-partition message, the conservative window
  /// width. Must be <= the real minimum cross-partition link latency
  /// (net::Network::cross_lookahead computes it); smaller is correct but
  /// slower. Zero degrades to single-timestamp windows.
  void set_lookahead(Time lookahead) { lookahead_ = lookahead; }
  [[nodiscard]] Time lookahead() const { return lookahead_; }

  /// Post a cross-partition message. `inject` runs on the thread that runs
  /// `dst`, at the start of `dst`'s next window, while other partitions run
  /// theirs. So it may touch only `dst`'s state, and it must schedule the
  /// delivery event(s) into `dst`'s Simulator at times >= `earliest`: the
  /// window rule counts on that bound. `earliest` is also the canonical sort
  /// key; it must be >= the posting partition's clock + lookahead when
  /// src != dst, or the message could land inside a window another
  /// partition already ran — a violation throws std::logic_error instead of
  /// silently breaking byte-identity. Same-partition posts run the thunk
  /// immediately (no lookahead applies inside a partition). Callable from
  /// the thread currently running the source partition, and from the caller
  /// between run_until() calls (such mail lands before the first window).
  void post(std::uint32_t src, std::uint32_t dst, Time earliest,
            EventFn inject);

  /// Advance every partition to `deadline` on `threads` threads, the calling
  /// thread included (clamped to [1, partitions]). Thread `id` runs
  /// partitions id, id + threads, ... in every window. Mail posted in the
  /// last window is injected before returning; the events it schedules lie
  /// beyond the deadline and run in a later call. An exception from an event
  /// or an injection thunk ends the run at the end of its window: after every
  /// thread has joined, the caller rethrows the one from the lowest-numbered
  /// partition that raised one, and the partitions stay where that window
  /// left them.
  void run_until(Time deadline, int threads);

  struct Stats {
    std::size_t windows = 0;    // windows run
    std::size_t messages = 0;   // cross-partition thunks injected
    Time min_window = Time::max();  // narrowest non-final window width
    /// Host seconds (steady clock) each partition spent injecting its mail
    /// and running its events, indexed by partition. Like wait_s, a host
    /// measurement that no simulated output reads.
    std::vector<double> busy_s;
    /// Host seconds spent waiting at the window barrier, summed over threads.
    double wait_s = 0.0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t partition_count() const { return sims_.size(); }

 private:
  struct Mailed {
    Time earliest;
    EventFn inject;
  };
  struct Merged {
    Time earliest;
    std::uint32_t src;
    std::uint32_t seq;  // position in its (src, dst) box: post order
    EventFn* inject;
  };
  /// Per-partition executor state, a cache line apart: written during a
  /// window only by the thread that runs the partition (and by post() from
  /// that thread), read by the barrier's completion step.
  struct alignas(64) Lane {
    Time next_event = Time::max();  // reported after each window it ran
    Time posted_min = Time::max();  // earliest mail posted since reporting
    std::size_t messages = 0;       // thunks injected, folded into stats_
    std::chrono::steady_clock::duration busy{};  // folded into stats_
    std::exception_ptr error;       // first exception the partition raised
    std::vector<Merged> merge;      // inbound merge scratch
  };

  /// Drain partition `dst`'s inbound boxes (the set post() is not writing)
  /// into its calendar in canonical order.
  void inject(std::size_t dst);
  /// Inclusive end of the safe window opened by the earliest event `t_min`.
  [[nodiscard]] Time window_end(Time t_min, Time deadline) const;

  Time lookahead_ = Time::zero();
  std::vector<Simulator*> sims_;
  /// outbox_[parity][src * P + dst]. post() writes set `parity_`; the other
  /// set holds the previous window's mail, which each destination drains at
  /// the start of its window. The barrier's completion step flips `parity_`.
  std::vector<std::vector<Mailed>> outbox_[2];
  unsigned parity_ = 0;
  std::vector<Lane> lanes_;
  Stats stats_;
};

}  // namespace hyms::sim
