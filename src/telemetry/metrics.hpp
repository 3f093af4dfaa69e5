#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace hyms::telemetry {

/// Process-light metric handle: a small dense integer handed out by a
/// MetricsRegistry in intern order. Components intern their metric names once
/// (at construction or first use) and bump plain vector slots on the hot
/// path — no string hashing or map walk per increment.
using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetricId = 0xFFFF'FFFFu;

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// Fixed-bucket histogram configuration: `buckets` equal-width buckets over
/// [lo, hi); samples outside the range land in underflow/overflow.
struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t buckets = 32;
};

/// Percentile summary of a histogram, estimated by linear interpolation
/// inside the bucket that crosses the target rank (exact min/max/count/sum
/// are tracked independently of the buckets).
struct HistogramSummary {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::int64_t underflow = 0;
  std::int64_t overflow = 0;
};

/// The metric plane of the telemetry layer: counters, gauges, and
/// fixed-bucket latency/size histograms, all addressed by interned dense
/// ids. Storage is a flat vector per kind, so a counter bump is one indexed
/// add. A *disabled* registry never exists — components reach the registry
/// through sim::Simulator's telemetry hub pointer, and a null hub costs
/// exactly the one branch that guards the call site.
class MetricsRegistry {
 public:
  /// Intern a counter (same name returns the same id; the kind must match
  /// the first interning or kInvalidMetricId is returned).
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name, HistogramSpec spec);

  /// Id for an already-interned name, or kInvalidMetricId.
  [[nodiscard]] MetricId find(std::string_view name) const;
  [[nodiscard]] const std::string& name(MetricId id) const {
    return defs_[id].name;
  }
  [[nodiscard]] MetricKind kind(MetricId id) const { return defs_[id].kind; }
  [[nodiscard]] std::size_t size() const { return defs_.size(); }

  // --- hot-path updates ------------------------------------------------------
  void add(MetricId id, std::int64_t by = 1) {
    counters_[defs_[id].slot] += by;
  }
  void set(MetricId id, double value) { gauges_[defs_[id].slot] = value; }
  void observe(MetricId id, double value);

  // --- reads -----------------------------------------------------------------
  [[nodiscard]] std::int64_t counter_value(MetricId id) const {
    return counters_[defs_[id].slot];
  }
  [[nodiscard]] double gauge_value(MetricId id) const {
    return gauges_[defs_[id].slot];
  }
  [[nodiscard]] const HistogramSpec& histogram_spec(MetricId id) const {
    return hists_[defs_[id].slot].spec;
  }
  [[nodiscard]] std::int64_t histogram_bucket(MetricId id,
                                              std::size_t bucket) const {
    return hists_[defs_[id].slot].counts[bucket];
  }
  [[nodiscard]] HistogramSummary summary(MetricId id) const;

  /// All metrics as CSV, sorted by name:
  /// "metric,kind,value,count,p50,p95,p99\n" (value = counter total or gauge
  /// level; count/percentile columns are empty for non-histograms).
  [[nodiscard]] std::string to_csv() const;

  void reset();

 private:
  struct Def {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;  // index into the kind's storage vector
  };
  struct Hist {
    HistogramSpec spec;
    double width = 0.0;
    std::vector<std::int64_t> counts;
    std::int64_t underflow = 0;
    std::int64_t overflow = 0;
    std::int64_t total = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  MetricId intern(std::string_view name, MetricKind kind);
  [[nodiscard]] double percentile_from_buckets(const Hist& h, double p) const;

  std::vector<Def> defs_;            // id -> definition
  std::vector<MetricId> by_name_;    // ids sorted by their names
  std::vector<std::int64_t> counters_;
  std::vector<double> gauges_;
  std::vector<Hist> hists_;
};

}  // namespace hyms::telemetry
