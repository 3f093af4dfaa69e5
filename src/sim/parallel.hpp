#pragma once

#include <cstddef>
#include <cstdint>
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
/// per-(src, dst) outbox it alone writes. At the barrier between windows the
/// coordinator drains every outbox and runs the thunks in a canonical merge
/// order: sorted by (earliest delivery time, source partition, per-pair
/// sequence). The order is a pure function of simulation state, never of
/// thread scheduling, so a run at any thread count produces byte-identical
/// results — the acceptance gate the tests pin down.
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

  /// Post a cross-partition message. `inject` runs at the next barrier (on
  /// the coordinator, with no partition executing) and must schedule the
  /// delivery event(s) — all at times >= `earliest` — into the destination
  /// partition's Simulator. `earliest` is the canonical sort key; it must be
  /// >= the posting partition's clock + lookahead when src != dst, or the
  /// message could land inside a window another partition already ran —
  /// a violation throws std::logic_error instead of silently breaking
  /// byte-identity. Same-partition posts run the thunk immediately (no
  /// lookahead applies inside a partition). Callable from the thread
  /// currently executing the source partition, and from the coordinator
  /// between windows.
  void post(std::uint32_t src, std::uint32_t dst, Time earliest,
            EventFn inject);

  /// Advance every partition to `deadline` using `threads` worker threads
  /// (clamped to [1, partitions]; 1 runs on the caller's thread). Messages
  /// whose delivery time lies beyond the deadline stay buffered for the next
  /// call. Rethrows the first exception a partition's event raises.
  void run_until(Time deadline, int threads);

  struct Stats {
    std::size_t windows = 0;    // barrier rounds executed
    std::size_t messages = 0;   // cross-partition thunks injected
    Time min_window = Time::max();  // narrowest non-final window width
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t partition_count() const { return sims_.size(); }

 private:
  struct Mailed {
    Time earliest;
    std::uint64_t seq;  // per (src, dst) pair, in post order
    EventFn inject;
  };
  struct Merged {
    Time earliest;
    std::uint32_t src;
    std::uint64_t seq;
    EventFn* inject;
  };

  /// Drain every outbox into the destination calendars in canonical order.
  void inject_all();
  /// Earliest pending event across all partitions (Time::max() if none).
  [[nodiscard]] Time next_time();
  /// Inclusive end of the safe window opened by the earliest event `t_min`.
  [[nodiscard]] Time window_end(Time t_min, Time deadline) const;
  void run_window_serial(Time window);
  void run_windows_threaded(Time deadline, int threads);

  Time lookahead_ = Time::zero();
  std::vector<Simulator*> sims_;
  /// outbox_[src * P + dst]: written only by the thread running partition
  /// `src` during a window, drained only by the coordinator at the barrier.
  std::vector<std::vector<Mailed>> outbox_;
  std::vector<std::uint64_t> pair_seq_;  // same indexing as outbox_
  std::vector<Merged> merge_scratch_;
  Stats stats_;
};

}  // namespace hyms::sim
