#pragma once

#include <cstdint>
#include <vector>

namespace hyms::util {

/// Streaming mean/variance/min/max (Welford). Used for per-stream delay and
/// jitter accounting where storing every sample would be wasteful.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const OnlineStats& other);
  void reset() { *this = OnlineStats{}; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Sample-retaining collector for exact percentiles; the bench harnesses
/// report p50/p95/p99 rows from this.
class Sampler {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  /// Percentile in [0,100] by linear interpolation between closest ranks.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Append every sample from `other` (exact percentiles over the union;
  /// insertion order is irrelevant — percentile() sorts).
  void merge_from(const Sampler& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }
  void reset() { samples_.clear(); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace hyms::util
