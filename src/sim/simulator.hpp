#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/inplace_function.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hyms::sim {

using EventFn = InplaceFunction;

/// Handle to a scheduled event; value 0 is "no event". Encodes
/// (slot generation << 32) | (slot index + 1), so cancel()/pending() are O(1)
/// slab lookups and a handle kept past its event's firing can never alias the
/// slot's next occupant (the generation advances on every release).
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Deterministic discrete-event simulation kernel. Everything the paper runs
/// concurrently — playout threads, media servers, QoS managers, packets in
/// flight — is an event here. Events at equal timestamps execute in schedule
/// order (FIFO), so a given seed always produces the identical trace.
///
/// Hot-path design: event callbacks live in a slab of fixed slots recycled
/// through a free list, so steady-state scheduling performs no allocation
/// (the callback itself is small-buffer-optimized, see InplaceFunction). The
/// pending queue is a wide d-ary min-heap of 16-byte (time, key) entries;
/// cancel()
/// only releases the slot, and the stale heap entry is discarded lazily when
/// it surfaces, detected by a sequence mismatch against the slab.
class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(std::uint64_t seed) : rng_(seed), seed_(seed) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule at an absolute simulation time (must be >= now()).
  EventId schedule_at(Time when, EventFn fn);
  /// Schedule after a delay from now (negative delays clamp to now).
  EventId schedule_after(Time delay, EventFn fn);
  /// Cancel a pending event; cancelling an already-fired id is a no-op.
  /// Inline, like pending(): a Timer cancels on every re-arm.
  void cancel(EventId id) {
    if (!pending(id)) return;
    ++cancelled_;
    release_slot(slot_of(id));  // the heap entry goes stale, pruned lazily
  }
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t index = slot_of(id);
    if (index >= slot_count_) return false;  // kNoEvent or a foreign id
    const Slot& s = slot(index);
    return s.seq != 0 && s.gen == gen_of(id);
  }

  /// Execute one event; returns false when the queue is empty.
  bool step();
  /// Run until the event queue drains (or the event budget trips).
  void run();
  /// Run events with timestamp <= deadline, then set the clock to deadline.
  void run_until(Time deadline);

  /// Timestamp of the earliest pending event (Time::max() when the queue is
  /// empty). Prunes stale heap tops, so the answer reflects live events only.
  [[nodiscard]] Time next_event_time();
  /// Latest time the current run is allowed to reach: the run_until deadline,
  /// Time::max() under run(), or the firing event's own timestamp under a
  /// caller-driven step() loop. Batched components consult this plus
  /// next_event_time() before processing work ahead of the clock.
  [[nodiscard]] Time run_horizon() const { return horizon_; }
  /// Advance the clock without executing an event. For components that
  /// process several timestamped items inside one event (e.g. a link
  /// delivering a packet train): each item must be handled at its exact
  /// logical time. The caller guarantees t <= next_event_time() and
  /// t <= run_horizon(); times before now() are ignored (clock is monotone).
  void advance_now(Time t) {
    if (t > now_) now_ = t;
  }

  [[nodiscard]] std::size_t executed() const { return executed_; }
  [[nodiscard]] std::size_t queued() const { return live_count_; }

  /// Root RNG; components fork substreams so insertion order of components
  /// does not perturb each other's randomness.
  [[nodiscard]] util::Rng& rng() { return rng_; }
  /// The seed the root RNG started from. A PURE fork base: some components
  /// (TCP, RTP) draw from the root directly, so its state depends on how
  /// many such components this kernel constructed — which differs with the
  /// partition count. A component whose substream must be identical at
  /// every partition count forks from util::Rng(sim.seed()) instead of from
  /// rng().
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Safety valve against runaway simulations (default: 500M events).
  void set_event_budget(std::size_t budget) { event_budget_ = budget; }

  /// Install (or remove, with nullptr) the run's telemetry hub. Non-owning.
  /// Install it immediately after constructing the Simulator — components
  /// intern their trace tracks in their constructors, through this pointer.
  /// With no hub installed every instrumentation site costs one null-check
  /// branch.
  void set_telemetry(telemetry::Hub* hub) { telemetry_ = hub; }
  [[nodiscard]] telemetry::Hub* telemetry() const { return telemetry_; }

  /// Dense per-run session trace ids (1, 2, ...; 0 means "untraced").
  /// Always on — allocation is a counter bump and is part of deterministic
  /// simulation state, so traced and bare runs assign identical ids and
  /// protocol frames carry identical bytes either way.
  [[nodiscard]] std::uint32_t next_trace_id() { return ++last_trace_id_; }

  [[nodiscard]] std::size_t cancelled() const { return cancelled_; }
  [[nodiscard]] std::size_t heap_peak() const { return heap_peak_; }

  /// Snapshot event-loop stats into the hub's metric registry (sim/*
  /// family). Called by export paths; a no-op without a hub.
  void flush_telemetry();

 private:
  /// Slot indices occupy the low kSlotBits of a heap key; the schedule
  /// sequence number fills the high bits, so comparing keys of equal-time
  /// entries compares schedule order (FIFO) and every key is unique.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNilSlot = kSlotMask;
  /// Heap fan-out. A 4-ary heap halves the depth of a binary heap, and the
  /// four 16-byte children of a node share one cache line, so a sift-down
  /// level costs one line fill instead of two; 8-ary measured slower here
  /// (children straddle two lines and the extra compares don't pay off).
  static constexpr std::size_t kHeapArity = 4;
  /// The slab grows in fixed chunks: slot addresses stay stable for the
  /// simulator's lifetime and growth never relocates live callbacks.
  static constexpr unsigned kChunkBits = 12;  // 4096 slots (256 KiB) per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  struct Slot {  // exactly one cache line (48-byte callable + 16 bytes)
    EventFn fn;
    std::uint64_t seq = 0;  // schedule order of the current occupant; 0 = free
    std::uint32_t gen = 0;  // bumped on release; validates user-held EventIds
    std::uint32_t next_free = kNilSlot;
  };
  struct HeapEntry {
    Time when;
    std::uint64_t key;  // (seq << kSlotBits) | slot
  };

  static constexpr std::uint32_t slot_of(EventId id) {
    const auto low = static_cast<std::uint32_t>(id);
    return low - 1;  // id 0 wraps to 0xFFFFFFFF, rejected by the range check
  }
  static constexpr std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Min-heap order: earliest time first; FIFO (schedule sequence) among
  /// equal timestamps. Keys are unique, so the order is total.
  static bool earlier(HeapEntry a, HeapEntry b) {
    if (a.when != b.when) return a.when < b.when;
    return a.key < b.key;
  }

  [[nodiscard]] Slot& slot(std::uint32_t index) {
    auto* chunk = reinterpret_cast<Slot*>(chunks_[index >> kChunkBits].get());
    return chunk[index & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    const auto* chunk =
        reinterpret_cast<const Slot*>(chunks_[index >> kChunkBits].get());
    return chunk[index & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Pop and fire the (live) heap top. Shared body of step()/run()/
  /// run_until(), which differ only in how they set horizon_.
  bool fire_top();
  /// Pop stale heap tops (cancelled or superseded slots); true if a live
  /// event remains on top.
  bool prune_to_live_top();
  void heap_push(HeapEntry entry);
  void heap_pop();

  Time now_ = Time::zero();
  Time horizon_ = Time::max();
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t heap_peak_ = 0;
  std::size_t event_budget_ = 500'000'000;
  std::uint32_t last_trace_id_ = 0;
  telemetry::Hub* telemetry_ = nullptr;
  std::vector<HeapEntry> heap_;  // kHeapArity-ary min-heap
  std::vector<std::unique_ptr<std::byte[]>> chunks_;  // raw Slot storage
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  util::Rng rng_{0x48594D53u /* "HYMS" */};
  std::uint64_t seed_ = 0x48594D53u;
};

/// A re-armable one-shot event, owned by the object it calls back into.
/// arm_at()/arm_after() replace any pending firing, cancel() drops it, and
/// the destructor cancels it, so an owner destroyed while its simulator runs
/// is never called back. A Timer is only the pending event's EventId; the
/// callback lives in the simulator's slot, which moves it onto the stack and
/// frees the slot before calling it. So a callback may re-arm its own Timer
/// or destroy the Timer's owner, and the id a fired Timer still holds is
/// stale (generation-checked): cancelling it does nothing.
///
/// Ownership rule: a callback that captures an object which can be destroyed
/// while its simulator still runs is armed through a Timer member of that
/// object. A bare Simulator::schedule_* is only for closures whose captures
/// outlive the run. The simulator must outlive every Timer made on it.
class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_(&sim) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire `fn` at `when` (clamped to now), replacing any pending firing.
  void arm_at(Time when, EventFn fn) {
    cancel();
    id_ = sim_->schedule_at(when, std::move(fn));
  }
  /// Fire `fn` after `delay` (negative delays clamp to now), replacing any
  /// pending firing.
  void arm_after(Time delay, EventFn fn) {
    cancel();
    id_ = sim_->schedule_after(delay, std::move(fn));
  }
  /// Drop the pending firing, if any.
  void cancel() {
    sim_->cancel(id_);
    id_ = kNoEvent;
  }
  [[nodiscard]] bool armed() const { return sim_->pending(id_); }

 private:
  Simulator* sim_;
  EventId id_ = kNoEvent;
};

}  // namespace hyms::sim
