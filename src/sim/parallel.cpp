#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace hyms::sim {

std::uint32_t ParallelExec::add_partition(Simulator& sim) {
  sims_.push_back(&sim);
  // Rebuild the (src, dst) mailbox mesh. Partitions must all be registered
  // before the first post(): re-assigning here discards nothing then.
  const std::size_t count = sims_.size();
  // resize, not assign: Mailed holds a move-only EventFn, so vector<Mailed>
  // cannot be copy-filled.
  outbox_.clear();
  outbox_.resize(count * count);
  pair_seq_.assign(count * count, 0);
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
  const std::size_t at = src * sims_.size() + dst;
  auto& box = outbox_[at];
  box.push_back(Mailed{earliest, pair_seq_[at]++, std::move(inject)});
}

void ParallelExec::inject_all() {
  const std::size_t count = sims_.size();
  for (std::size_t dst = 0; dst < count; ++dst) {
    merge_scratch_.clear();
    for (std::size_t src = 0; src < count; ++src) {
      for (auto& m : outbox_[src * count + dst]) {
        merge_scratch_.push_back(
            Merged{m.earliest, static_cast<std::uint32_t>(src), m.seq,
                   &m.inject});
      }
    }
    if (merge_scratch_.empty()) continue;
    // Canonical merge order: delivery time, then source partition, then the
    // pair's post sequence. (src, seq) is unique, so the order is total and
    // independent of both thread count and outbox drain order — the
    // determinism guarantee lives on this sort.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const Merged& a, const Merged& b) {
                if (a.earliest != b.earliest) return a.earliest < b.earliest;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (auto& m : merge_scratch_) (*m.inject)();
    stats_.messages += merge_scratch_.size();
    for (std::size_t src = 0; src < count; ++src) {
      outbox_[src * count + dst].clear();
    }
  }
}

Time ParallelExec::next_time() {
  Time t = Time::max();
  for (Simulator* sim : sims_) t = std::min(t, sim->next_event_time());
  return t;
}

void ParallelExec::run_window_serial(Time window) {
  for (Simulator* sim : sims_) sim->run_until(window);
}

void ParallelExec::run_until(Time deadline, int threads) {
  const std::size_t count = sims_.size();
  if (count == 0) return;
  threads = std::max(1, std::min<int>(threads, static_cast<int>(count)));
  if (threads == 1) {
    for (;;) {
      inject_all();
      const Time t_min = next_time();
      if (t_min > deadline) {
        run_window_serial(deadline);  // advance every clock to the deadline
        return;
      }
      const Time window = window_end(t_min, deadline);
      run_window_serial(window);
      ++stats_.windows;
      stats_.min_window = std::min(stats_.min_window, window - t_min);
    }
  }
  run_windows_threaded(deadline, threads);
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

void ParallelExec::run_windows_threaded(Time deadline, int threads) {
  const std::size_t count = sims_.size();
  // Barrier-windowed pool: the coordinator (this thread) computes each
  // window and drains mailboxes between windows; workers run a static
  // partition slice (p = id, id + T, ...) inside the window. std::barrier
  // gives the happens-before edges, so the only cross-thread state — the
  // mailboxes and the partitions' calendars — is handed over race-free.
  std::barrier<> start_gate(threads + 1);
  std::barrier<> end_gate(threads + 1);
  Time window = Time::zero();
  bool done = false;
  std::exception_ptr err;
  std::mutex err_mu;

  auto worker = [&](int id) {
    for (;;) {
      start_gate.arrive_and_wait();
      if (done) return;
      for (std::size_t p = static_cast<std::size_t>(id); p < count;
           p += static_cast<std::size_t>(threads)) {
        try {
          sims_[p]->run_until(window);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!err) err = std::current_exception();
        }
      }
      end_gate.arrive_and_wait();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);

  auto shut_down = [&] {
    done = true;
    start_gate.arrive_and_wait();
    for (auto& thread : pool) thread.join();
  };

  for (;;) {
    inject_all();
    const Time t_min = next_time();
    if (t_min > deadline || err) {
      shut_down();
      if (err) std::rethrow_exception(err);
      run_window_serial(deadline);
      return;
    }
    window = window_end(t_min, deadline);
    start_gate.arrive_and_wait();
    end_gate.arrive_and_wait();
    ++stats_.windows;
    stats_.min_window = std::min(stats_.min_window, window - t_min);
  }
}

}  // namespace hyms::sim
