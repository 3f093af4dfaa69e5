#include "media/frame_cache.hpp"

#include <string>

#include "media/source.hpp"
#include "telemetry/metrics.hpp"

namespace hyms::media {

FrameCache::FrameCache() : FrameCache(Config{}) {}

FrameCache::FrameCache(Config config) : budget_(config.byte_budget) {}

FramePayload FrameCache::get(const MediaSource& source, std::int64_t index,
                             int level) {
  const Key key{source.content_key(), index, level};
  // A content_key collision between two *synthetic* sources is harmless
  // whenever the sizes agree — the payload is a pure function of
  // (source_hash, index, level, size) — so the size check below is the only
  // discriminator needed beyond the key. frame_bytes() also range-checks.
  const std::size_t expected = source.frame_bytes(index, level);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(key); it != index_.end() &&
                                    it->second->payload->size() == expected) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->payload;
    }
  }
  // Miss: synthesize outside the lock. Two shards racing on the same key
  // both synthesize (identical bytes); the insert below keeps one copy.
  auto payload = std::make_shared<const std::vector<std::uint8_t>>(
      source.synthesize_payload(index, level));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  if (auto it = index_.find(key); it != index_.end()) {
    if (it->second->payload->size() == expected) {
      // Another shard inserted it while we synthesized: share theirs.
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->payload;
    }
    // Stale entry from a colliding source of a different size: replace.
    bytes_ -= it->second->payload->size();
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.evictions;
  }
  if (budget_ == 0 || payload->size() > budget_) {
    return payload;  // bypass: uncacheable under this budget
  }
  lru_.push_front(Entry{key, payload});
  index_[key] = lru_.begin();
  bytes_ += payload->size();
  evict_to_budget();
  return payload;
}

void FrameCache::evict_to_budget() {
  while (bytes_ > budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.payload->size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void FrameCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

FrameCache::Stats FrameCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.bytes = bytes_;
  out.entries = lru_.size();
  return out;
}

void FrameCache::flush_telemetry(telemetry::MetricsRegistry& metrics,
                                 std::string_view prefix) const {
  const Stats s = stats();
  const std::string p(prefix);
  metrics.set(p + "hits", static_cast<double>(s.hits));
  metrics.set(p + "misses", static_cast<double>(s.misses));
  metrics.set(p + "evictions", static_cast<double>(s.evictions));
  metrics.set(p + "bytes", static_cast<double>(s.bytes));
  metrics.set(p + "entries", static_cast<double>(s.entries));
  metrics.set(p + "hit_rate", s.hit_rate());
}

}  // namespace hyms::media
