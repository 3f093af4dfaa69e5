#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace hyms::util {

void OnlineStats::add(double x) {
  ++count_;
  sum_ += x;
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

double Sampler::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double Sampler::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Sampler::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Sampler::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

}  // namespace hyms::util
