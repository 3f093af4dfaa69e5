#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace hyms::buffer {

/// A frame parked in a client-side media buffer awaiting playout. The
/// buffer holds a frame's playout metadata, not its bytes: the client checks
/// the bytes on arrival, and playout only needs to know the frame is there.
struct BufferedFrame {
  std::int64_t index = 0;   // content frame index within the stream
  Time media_time;           // stream-relative presentation time
  Time duration;
  Time arrival;              // when the reassembled frame reached the buffer
};

/// One thread of the paper's "multiple thread queue" buffering layer (§4):
/// a per-stream reorder buffer whose *length corresponds to a playback time*
/// — the media time window. Watermarks drive the short-term synchronization
/// mechanisms (duplication on underflow, dropping on overflow).
///
/// Storage is a contiguous ring keyed by content index: frame k lives in
/// slot k mod capacity (a power of two), so push/pop/peek on the per-frame
/// path are vector indexing with no node allocation or tree walk. The ring
/// grows geometrically to cover the live index span; out-of-order arrivals
/// land directly in their slot, and the smallest buffered index is tracked
/// so in-order consumption stays O(1) amortized. Ring size is bounded by the
/// span actually buffered, not by `capacity_frames`, preserving the old
/// node-map acceptance behavior for sparse indices; only a span so wide the
/// ring would exceed kMaxSlots (pathological sender) is rejected.
class MediaBuffer {
 public:
  struct Config {
    /// Target buffered playback time ("media time window").
    Time time_window = Time::msec(500);
    /// Fractions of the time window that trigger the monitor's actions.
    double low_watermark = 0.25;
    double high_watermark = 2.0;
    /// Hard cap, in frames (and in buffered index span), against
    /// pathological senders.
    std::size_t capacity_frames = 4096;
  };

  MediaBuffer(std::string stream_id, Config config);

  /// Insert a frame (kept ordered by index; duplicates are dropped). Returns
  /// false when the frame was rejected (buffer at hard capacity, duplicate
  /// index, or an index span past kMaxSlots).
  bool push(BufferedFrame frame);

  /// Remove and return the earliest buffered frame.
  std::optional<BufferedFrame> pop();
  /// Earliest frame without removing it.
  [[nodiscard]] const BufferedFrame* peek() const;
  /// Discard all frames with index < first_kept; returns how many went.
  std::size_t drop_before(std::int64_t first_kept);
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Buffered playback time: sum of durations of queued frames.
  [[nodiscard]] Time occupancy_time() const { return occupancy_; }
  [[nodiscard]] double fill_ratio() const {
    return occupancy_.ratio(config_.time_window);
  }
  [[nodiscard]] bool below_low_watermark() const {
    return fill_ratio() < config_.low_watermark;
  }
  [[nodiscard]] bool above_high_watermark() const {
    return fill_ratio() > config_.high_watermark;
  }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const std::string& stream_id() const { return stream_id_; }

  struct Stats {
    std::int64_t pushed = 0;
    std::int64_t popped = 0;
    std::int64_t rejected_capacity = 0;
    std::int64_t rejected_duplicate = 0;
    std::int64_t dropped = 0;       // via drop_before
    /// Occupancy sampled on every push/pop, kept as a sum and a count: the
    /// mean is all that is read, and the sum adds the samples in the order
    /// a retained list would, so the mean is the same to the bit.
    double occupancy_ms_sum = 0.0;
    std::int64_t occupancy_samples = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  /// Sentinel for an unoccupied ring slot (no valid content index).
  static constexpr std::int64_t kEmptySlot =
      std::numeric_limits<std::int64_t>::min();
  /// Largest ring the buffer will allocate; an index span wider than this
  /// (only reachable with absurdly sparse indices) is rejected as capacity.
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 20;

  void note_occupancy() {
    stats_.occupancy_ms_sum += occupancy_.to_ms();
    ++stats_.occupancy_samples;
  }
  [[nodiscard]] std::size_t slot_of(std::int64_t index) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(index) & mask_);
  }
  /// Grow the ring to a power of two that can hold `span` distinct indices.
  void grow_to_span(std::uint64_t span);
  /// Remove the frame at min_index_ and advance min_index_ to the next
  /// occupied slot (or leave the ring empty).
  BufferedFrame take_min();

  std::string stream_id_;
  Config config_;
  std::vector<BufferedFrame> ring_;       // frame k at slot k & mask_
  std::vector<std::int64_t> slot_index_;  // occupant index, or kEmptySlot
  std::size_t mask_ = 0;                  // ring_.size() - 1 (power of two)
  std::size_t size_ = 0;
  std::int64_t min_index_ = 0;            // valid while size_ > 0
  std::int64_t max_index_ = 0;            // valid while size_ > 0
  Time occupancy_ = Time::zero();
  Stats stats_;
};

}  // namespace hyms::buffer
