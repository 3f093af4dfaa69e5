#include "buffer/media_buffer.hpp"

#include <algorithm>
#include <utility>

namespace hyms::buffer {

namespace {
constexpr std::size_t kInitialSlots = 64;

std::size_t pow2_at_least(std::uint64_t n) {
  std::size_t cap = kInitialSlots;
  while (cap < n) cap <<= 1;
  return cap;
}
}  // namespace

MediaBuffer::MediaBuffer(std::string stream_id, Config config)
    : stream_id_(std::move(stream_id)), config_(config) {}

void MediaBuffer::grow_to_span(std::uint64_t span) {
  const std::size_t cap = pow2_at_least(span);
  if (!ring_.empty() && cap <= ring_.size()) return;
  std::vector<BufferedFrame> ring(cap);
  std::vector<std::int64_t> slot_index(cap, kEmptySlot);
  const std::size_t new_mask = cap - 1;
  if (size_ > 0) {
    for (std::int64_t k = min_index_; k <= max_index_; ++k) {
      const std::size_t old_slot = slot_of(k);
      if (slot_index_[old_slot] != k) continue;
      const std::size_t new_slot =
          static_cast<std::size_t>(static_cast<std::uint64_t>(k) & new_mask);
      ring[new_slot] = std::move(ring_[old_slot]);
      slot_index[new_slot] = k;
    }
  }
  ring_ = std::move(ring);
  slot_index_ = std::move(slot_index);
  mask_ = new_mask;
}

bool MediaBuffer::push(BufferedFrame frame) {
  if (size_ >= config_.capacity_frames) {
    ++stats_.rejected_capacity;
    return false;
  }
  const std::int64_t lo = size_ > 0 ? std::min(min_index_, frame.index)
                                    : frame.index;
  const std::int64_t hi = size_ > 0 ? std::max(max_index_, frame.index)
                                    : frame.index;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span > kMaxSlots) {
    ++stats_.rejected_capacity;
    return false;
  }
  if (ring_.empty() || span > ring_.size()) grow_to_span(span);

  const std::size_t slot = slot_of(frame.index);
  if (slot_index_[slot] == frame.index) {
    ++stats_.rejected_duplicate;
    return false;
  }
  const Time duration = frame.duration;
  slot_index_[slot] = frame.index;
  ring_[slot] = std::move(frame);
  min_index_ = lo;
  max_index_ = hi;
  ++size_;
  ++stats_.pushed;
  occupancy_ += duration;
  note_occupancy();
  return true;
}

BufferedFrame MediaBuffer::take_min() {
  const std::size_t slot = slot_of(min_index_);
  BufferedFrame frame = std::move(ring_[slot]);
  slot_index_[slot] = kEmptySlot;
  --size_;
  occupancy_ -= frame.duration;
  if (size_ > 0) {
    std::int64_t k = min_index_ + 1;
    while (slot_index_[slot_of(k)] != k) ++k;
    min_index_ = k;
  }
  return frame;
}

std::optional<BufferedFrame> MediaBuffer::pop() {
  if (size_ == 0) return std::nullopt;
  BufferedFrame frame = take_min();
  ++stats_.popped;
  note_occupancy();
  return frame;
}

const BufferedFrame* MediaBuffer::peek() const {
  if (size_ == 0) return nullptr;
  return &ring_[slot_of(min_index_)];
}

std::size_t MediaBuffer::drop_before(std::int64_t first_kept) {
  std::size_t dropped = 0;
  while (size_ > 0 && min_index_ < first_kept) {
    take_min();
    ++dropped;
  }
  stats_.dropped += static_cast<std::int64_t>(dropped);
  if (dropped > 0) note_occupancy();
  return dropped;
}

void MediaBuffer::clear() {
  std::fill(slot_index_.begin(), slot_index_.end(), kEmptySlot);
  size_ = 0;
  occupancy_ = Time::zero();
}

}  // namespace hyms::buffer
