#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

namespace hyms::sim {

std::uint32_t ParallelExec::add_partition(Simulator& sim) {
  sims_.push_back(&sim);
  // Rebuild the (src, dst) mailbox mesh. Partitions must all be registered
  // before the first post(): re-assigning here discards nothing then.
  const std::size_t count = sims_.size();
  for (auto& set : outbox_) {
    // resize, not assign: Mailed holds a move-only EventFn, so vector<Mailed>
    // cannot be copy-filled.
    set.clear();
    set.resize(count * count);
  }
  lanes_.resize(count);
  stats_.busy_s.assign(count, 0.0);
  return static_cast<std::uint32_t>(count - 1);
}

void ParallelExec::post(std::uint32_t src, std::uint32_t dst, Time earliest,
                        EventFn inject) {
  if (src == dst) {
    // Intra-partition traffic needs no conservative delay: the source is the
    // destination's own thread, so schedule straight into the calendar.
    inject();
    return;
  }
  const Time now = sims_[src]->now();
  const Time bound =
      lookahead_ > Time::max() - now ? Time::max() : now + lookahead_;
  if (earliest < bound) {
    throw std::logic_error(
        "ParallelExec::post: cross-partition message earlier than the "
        "poster's clock + lookahead");
  }
  outbox_[parity_][src * sims_.size() + dst].push_back(
      Mailed{earliest, std::move(inject)});
  Time& posted = lanes_[src].posted_min;
  posted = std::min(posted, earliest);
}

void ParallelExec::inject(std::size_t dst) {
  const std::size_t count = sims_.size();
  auto& boxes = outbox_[parity_ ^ 1U];
  Lane& lane = lanes_[dst];
  auto& merged = lane.merge;
  // Cleared before use, not after: a throwing thunk must not leave pointers
  // into boxes that later posts may reallocate.
  merged.clear();
  for (std::size_t src = 0; src < count; ++src) {
    auto& box = boxes[src * count + dst];
    for (std::size_t i = 0; i < box.size(); ++i) {
      merged.push_back(Merged{box[i].earliest, static_cast<std::uint32_t>(src),
                              static_cast<std::uint32_t>(i), &box[i].inject});
    }
  }
  if (merged.empty()) return;
  // Canonical merge order: delivery time, then source partition, then the
  // pair's post sequence. (src, seq) is unique, so the order is total and
  // independent of both thread count and outbox drain order — the
  // determinism guarantee lives on this sort.
  std::sort(merged.begin(), merged.end(), [](const Merged& a, const Merged& b) {
    if (a.earliest != b.earliest) return a.earliest < b.earliest;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (const Merged& m : merged) (*m.inject)();
  lane.messages += merged.size();
  for (std::size_t src = 0; src < count; ++src) {
    boxes[src * count + dst].clear();
  }
}

Time ParallelExec::window_end(Time t_min, Time deadline) const {
  // The safe horizon is T_min + L exclusive: a message generated at t >=
  // T_min arrives no earlier than T_min + L, so every event strictly before
  // that is unaffected by the other partitions. With integer-microsecond
  // time, "strictly before T_min + L" is "inclusive up to T_min + L - 1us".
  // L == 0 degrades to a single-timestamp window: events exactly at T_min
  // run, and a zero-latency message they generate is delivered at the same
  // logical time in the next round (the clock never regresses), so the
  // result is still correct — just serialized.
  if (lookahead_ <= Time::zero()) return std::min(t_min, deadline);
  const Time margin = lookahead_ - Time::usec(1);
  if (t_min > Time::max() - margin) return deadline;  // saturate
  return std::min(t_min + margin, deadline);
}

void ParallelExec::run_until(Time deadline, int threads) {
  const std::size_t count = sims_.size();
  if (count == 0) return;
  const auto stride = static_cast<std::size_t>(
      std::clamp(threads, 1, static_cast<int>(count)));

  // What every thread does after the barrier: run the next window, run the
  // final pass (inject the last mail, advance every clock to the deadline),
  // or stop where the window left the partitions because one of them threw.
  enum class Next { kWindow, kFinish, kAbort };
  Next next = Next::kWindow;
  Time window = Time::zero();

  // The barrier's completion step, run once per window while every thread is
  // parked (and once on the caller before the first window): the mail posted
  // in the window just run becomes the inbound set, and the next window
  // opens at the earliest time any partition reported. A thunk schedules at
  // or after its mail's `earliest`, so that minimum bounds every pending
  // event, injected or not.
  auto close_window = [&]() noexcept {
    parity_ ^= 1U;
    Time t_min = Time::max();
    bool failed = false;
    for (Lane& lane : lanes_) {
      t_min = std::min({t_min, lane.next_event, lane.posted_min});
      lane.posted_min = Time::max();
      failed = failed || lane.error != nullptr;
    }
    if (failed) {
      next = Next::kAbort;
    } else if (t_min > deadline) {
      next = Next::kFinish;
    } else {
      window = window_end(t_min, deadline);
      ++stats_.windows;
      stats_.min_window = std::min(stats_.min_window, window - t_min);
    }
  };
  for (std::size_t p = 0; p < count; ++p) {
    lanes_[p].next_event = sims_[p]->next_event_time();
  }
  close_window();

  std::barrier sync(static_cast<std::ptrdiff_t>(stride), close_window);
  using Clock = std::chrono::steady_clock;
  // Thread `id` runs partitions id, id + stride, ... in every window, the
  // calling thread slice 0. Each partition first injects the mail addressed
  // to it, on its own thread, then runs the window. Returns the time the
  // thread spent at the barrier (a lone thread has none: it runs the
  // completion step itself).
  auto run_slice = [&](std::size_t id) {
    Clock::duration wait{};
    auto mark = Clock::now();
    for (;;) {
      const Time until = next == Next::kWindow ? window : deadline;
      for (std::size_t p = id; p < count; p += stride) {
        Lane& lane = lanes_[p];
        try {
          inject(p);
          sims_[p]->run_until(until);
        } catch (...) {
          if (lane.error == nullptr) lane.error = std::current_exception();
        }
        lane.next_event = sims_[p]->next_event_time();
        const auto now = Clock::now();
        lane.busy += now - mark;
        mark = now;
      }
      if (next != Next::kWindow) return wait;
      if (stride == 1) {
        close_window();
      } else {
        sync.arrive_and_wait();
        const auto now = Clock::now();
        wait += now - mark;
        mark = now;
      }
      if (next == Next::kAbort) return wait;
    }
  };

  std::vector<Clock::duration> waits(stride);
  std::vector<std::thread> pool;
  pool.reserve(stride - 1);
  for (std::size_t id = 1; id < stride; ++id) {
    pool.emplace_back([&run_slice, &waits, id] { waits[id] = run_slice(id); });
  }
  waits[0] = run_slice(0);
  for (auto& thread : pool) thread.join();

  const auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  for (const Clock::duration w : waits) stats_.wait_s += seconds(w);
  std::exception_ptr error;
  for (std::size_t p = 0; p < count; ++p) {
    Lane& lane = lanes_[p];
    stats_.messages += std::exchange(lane.messages, 0);
    stats_.busy_s[p] += seconds(std::exchange(lane.busy, {}));
    if (error == nullptr) error = lane.error;
    lane.error = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace hyms::sim
