#include "client/qos_manager.hpp"

#include <algorithm>
#include <limits>

namespace hyms::client {

void ClientQosManager::attach(core::StreamId id, buffer::MediaBuffer* buffer,
                              rtp::RtpReceiver* receiver) {
  if (id >= streams_.size()) streams_.resize(id + 1);
  if (!streams_[id].attached) ++attached_;
  streams_[id] = StreamRef{buffer, receiver, true};
  if (receiver != nullptr) {
    receiver->set_extra_metrics([this, id] { return metrics_for(id); });
  }
}

void ClientQosManager::detach(core::StreamId id) {
  if (id >= streams_.size() || !streams_[id].attached) return;
  if (streams_[id].receiver != nullptr) {
    streams_[id].receiver->set_extra_metrics({});
  }
  streams_[id] = StreamRef{};
  --attached_;
}

std::vector<std::pair<std::string, double>> ClientQosManager::metrics_for(
    core::StreamId id) const {
  std::vector<std::pair<std::string, double>> metrics;
  if (id >= streams_.size() || !streams_[id].attached) return metrics;
  const StreamRef& ref = streams_[id];
  if (ref.buffer != nullptr) {
    metrics.emplace_back("buffer_ms", ref.buffer->occupancy_time().to_ms());
  }
  if (ref.receiver != nullptr) {
    metrics.emplace_back("jitter_ms", ref.receiver->stats().jitter_ms);
    metrics.emplace_back(
        "incomplete",
        static_cast<double>(ref.receiver->stats().frames_incomplete));
  }
  return metrics;
}

double ClientQosManager::min_buffer_ms() const {
  double lowest = std::numeric_limits<double>::infinity();
  bool any = false;
  for (const StreamRef& ref : streams_) {
    if (ref.attached && ref.buffer != nullptr) {
      lowest = std::min(lowest, ref.buffer->occupancy_time().to_ms());
      any = true;
    }
  }
  return any ? lowest : 0.0;
}

double ClientQosManager::worst_jitter_ms() const {
  double worst = 0.0;
  for (const StreamRef& ref : streams_) {
    if (ref.attached && ref.receiver != nullptr) {
      worst = std::max(worst, ref.receiver->stats().jitter_ms);
    }
  }
  return worst;
}

std::int64_t ClientQosManager::total_incomplete_frames() const {
  std::int64_t total = 0;
  for (const StreamRef& ref : streams_) {
    if (ref.attached && ref.receiver != nullptr) {
      total += ref.receiver->stats().frames_incomplete;
    }
  }
  return total;
}

}  // namespace hyms::client
