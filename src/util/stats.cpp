#include "util/stats.hpp"

#include <algorithm>

namespace hyms::util {

double percentile_of_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double Sampler::percentile(double p) const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return percentile_of_sorted(samples_, p);
}

double Sampler::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Sampler::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

}  // namespace hyms::util
