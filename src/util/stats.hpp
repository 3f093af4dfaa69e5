#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hyms::util {

/// Percentile `p` in [0,100] of an ascending-sorted sample, by linear
/// interpolation between closest ranks: rank p/100 * (n-1), so p50 of {1,2}
/// is 1.5 (numpy's default). 0 for an empty sample.
[[nodiscard]] double percentile_of_sorted(std::span<const double> sorted,
                                          double p);

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
  /// percentile_of_sorted() over the samples (sorted on demand).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
  /// Append every sample from `other` (exact percentiles over the union;
  /// insertion order is irrelevant — percentile() sorts).
  void merge_from(const Sampler& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace hyms::util
