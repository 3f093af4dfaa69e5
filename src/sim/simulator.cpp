#include "sim/simulator.hpp"

#include <algorithm>
#include <cstddef>
#include <new>
#include <stdexcept>

namespace hyms::sim {

EventId Simulator::schedule_at(Time when, EventFn fn) {
  if (when < now_) when = now_;
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.seq = next_seq_++;
  heap_push(HeapEntry{when, (s.seq << kSlotBits) | index});
  ++live_count_;
  return (static_cast<EventId>(s.gen) << 32) | (index + 1);
}

EventId Simulator::schedule_after(Time delay, EventFn fn) {
  if (delay < Time::zero()) delay = Time::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slot(index).next_free;
    return index;
  }
  if (slot_count_ >= kNilSlot) {
    throw std::length_error("Simulator: too many concurrent events");
  }
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    // Chunks are raw storage: slots are constructed one by one as the slab's
    // high-water mark advances, so growing the slab never memsets 256 KiB
    // through the cache.
    chunks_.push_back(
        std::unique_ptr<std::byte[]>(new std::byte[sizeof(Slot) * kChunkSize]));
    // Grow the heap's capacity in lockstep with the slab (geometrically, to
    // keep push_back amortized O(1)): as long as stale (cancelled) entries
    // don't pile up, heap size <= slot capacity, so heap_push never
    // reallocates mid-run.
    const std::size_t target = static_cast<std::size_t>(slot_count_) + kChunkSize;
    if (heap_.capacity() < target) {
      heap_.reserve(std::max(target, heap_.capacity() * 2));
    }
  }
  ::new (static_cast<void*>(&slot(slot_count_))) Slot();
  return slot_count_++;
}

Simulator::~Simulator() {
  for (std::uint32_t i = 0; i < slot_count_; ++i) slot(i).~Slot();
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.fn.reset();
  s.seq = 0;
  ++s.gen;  // invalidates every EventId handed out for this occupancy
  s.next_free = free_head_;
  free_head_ = index;
  --live_count_;
}

bool Simulator::prune_to_live_top() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const std::uint32_t index = static_cast<std::uint32_t>(top.key) & kSlotMask;
    if (slot(index).seq == top.key >> kSlotBits) return true;
    heap_pop();  // cancelled: the slot was released or already re-occupied
  }
  return false;
}

bool Simulator::fire_top() {
  const HeapEntry top = heap_.front();
  heap_pop();
  const std::uint32_t index = static_cast<std::uint32_t>(top.key) & kSlotMask;
  now_ = top.when;
  // Move the callback out and free the slot before invoking: the callback may
  // schedule or cancel, and must see itself as not pending.
  EventFn fn = std::move(slot(index).fn);
  release_slot(index);
  ++executed_;
  if (executed_ > event_budget_) {
    throw std::runtime_error("Simulator: event budget exceeded");
  }
  fn();
  return true;
}

bool Simulator::step() {
  if (!prune_to_live_top()) return false;
  // A caller-driven step() must look like exactly one event: batched
  // components may only process work up to this event's own timestamp.
  horizon_ = heap_.front().when;
  return fire_top();
}

Time Simulator::next_event_time() {
  return prune_to_live_top() ? heap_.front().when : Time::max();
}

void Simulator::run() {
  horizon_ = Time::max();
  while (prune_to_live_top()) fire_top();
}

void Simulator::flush_telemetry() {
  if (telemetry_ == nullptr) return;
  auto& m = telemetry_->metrics();
  m.set("sim/events_executed", static_cast<double>(executed_));
  m.set("sim/events_cancelled", static_cast<double>(cancelled_));
  m.set("sim/events_queued", static_cast<double>(live_count_));
  m.set("sim/heap_peak", static_cast<double>(heap_peak_));
  m.set("sim/now_ms", now_.to_ms());
}

void Simulator::run_until(Time deadline) {
  // A deadline in the past clamps to now(): the clock is monotone, and the
  // horizon must never sit behind it (batched components compare arrival
  // times against run_horizon(), and a stale past horizon would wedge their
  // run-ahead). Partitioned execution hits this when a partition with no
  // work is repeatedly advanced to window ends it already reached.
  if (deadline < now_) deadline = now_;
  // The horizon caps batched run-ahead: a component must not deliver work
  // past the deadline (user code between run_until calls would observe
  // different state than under per-item events).
  horizon_ = deadline;
  while (prune_to_live_top() && heap_.front().when <= deadline) fire_top();
  if (now_ < deadline) now_ = deadline;
}

void Simulator::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  if (heap_.size() > heap_peak_) heap_peak_ = heap_.size();
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::heap_pop() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

}  // namespace hyms::sim
