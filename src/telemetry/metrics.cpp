#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace hyms::telemetry {

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricId MetricsRegistry::intern(std::string_view name, MetricKind kind) {
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](MetricId id, std::string_view n) { return defs_[id].name < n; });
  if (it != by_name_.end() && defs_[*it].name == name) {
    return defs_[*it].kind == kind ? *it : kInvalidMetricId;
  }
  const auto id = static_cast<MetricId>(defs_.size());
  std::uint32_t slot = 0;
  switch (kind) {
    case MetricKind::kCounter:
      slot = static_cast<std::uint32_t>(counters_.size());
      counters_.push_back(0);
      break;
    case MetricKind::kGauge:
      slot = static_cast<std::uint32_t>(gauges_.size());
      gauges_.push_back(0.0);
      break;
    case MetricKind::kHistogram:
      slot = static_cast<std::uint32_t>(hists_.size());
      hists_.emplace_back();
      break;
  }
  defs_.push_back(Def{std::string(name), kind, slot});
  by_name_.insert(it, id);
  return id;
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return intern(name, MetricKind::kCounter);
}

MetricId MetricsRegistry::gauge(std::string_view name) {
  return intern(name, MetricKind::kGauge);
}

MetricId MetricsRegistry::histogram(std::string_view name, HistogramSpec spec) {
  const MetricId id = intern(name, MetricKind::kHistogram);
  if (id == kInvalidMetricId) return id;
  Hist& h = hists_[defs_[id].slot];
  if (h.counts.empty()) {  // first interning: size the buckets
    spec.buckets = std::max<std::size_t>(1, spec.buckets);
    if (spec.hi <= spec.lo) spec.hi = spec.lo + 1.0;
    h.spec = spec;
    h.width = (spec.hi - spec.lo) / static_cast<double>(spec.buckets);
    h.counts.assign(spec.buckets, 0);
  }
  return id;
}

MetricId MetricsRegistry::find(std::string_view name) const {
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](MetricId id, std::string_view n) { return defs_[id].name < n; });
  if (it != by_name_.end() && defs_[*it].name == name) return *it;
  return kInvalidMetricId;
}

void MetricsRegistry::observe(MetricId id, double value) {
  Hist& h = hists_[defs_[id].slot];
  if (h.total == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.total;
  h.sum += value;
  if (value < h.spec.lo) {
    ++h.underflow;
  } else if (value >= h.spec.hi) {
    ++h.overflow;
  } else {
    const auto bucket = static_cast<std::size_t>((value - h.spec.lo) / h.width);
    ++h.counts[std::min(bucket, h.counts.size() - 1)];
  }
}

double MetricsRegistry::percentile_from_buckets(const Hist& h,
                                                double p) const {
  // Rank walk over underflow, the buckets, then overflow. Under/overflow
  // samples are summarized by the exact min/max, buckets by linear
  // interpolation through the crossing bucket.
  if (h.total == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(h.total);
  double seen = static_cast<double>(h.underflow);
  if (rank <= seen) return h.min;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(h.counts[i]);
    if (rank <= seen + in_bucket) {
      const double frac = in_bucket > 0 ? (rank - seen) / in_bucket : 0.0;
      return h.spec.lo + h.width * (static_cast<double>(i) + frac);
    }
    seen += in_bucket;
  }
  return h.max;
}

HistogramSummary MetricsRegistry::summary(MetricId id) const {
  const Hist& h = hists_[defs_[id].slot];
  HistogramSummary s;
  s.count = h.total;
  s.sum = h.sum;
  s.min = h.min;
  s.max = h.max;
  s.underflow = h.underflow;
  s.overflow = h.overflow;
  s.p50 = percentile_from_buckets(h, 50);
  s.p95 = percentile_from_buckets(h, 95);
  s.p99 = percentile_from_buckets(h, 99);
  return s;
}

std::string MetricsRegistry::to_csv() const {
  std::string out = "metric,kind,value,count,p50,p95,p99\n";
  char buf[128];
  for (const MetricId id : by_name_) {  // sorted by name
    const Def& def = defs_[id];
    out += def.name;
    out += ',';
    out += to_string(def.kind);
    switch (def.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), ",%lld,,,,",
                      static_cast<long long>(counters_[def.slot]));
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof(buf), ",%.6g,,,,", gauges_[def.slot]);
        break;
      case MetricKind::kHistogram: {
        const HistogramSummary s = summary(id);
        std::snprintf(buf, sizeof(buf), ",,%lld,%.6g,%.6g,%.6g",
                      static_cast<long long>(s.count), s.p50, s.p95, s.p99);
        break;
      }
    }
    out += buf;
    out += '\n';
  }
  return out;
}

void MetricsRegistry::reset() {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), 0.0);
  for (Hist& h : hists_) {
    std::fill(h.counts.begin(), h.counts.end(), 0);
    h.underflow = 0;
    h.overflow = 0;
    h.total = 0;
    h.sum = 0.0;
    h.min = 0.0;
    h.max = 0.0;
  }
}

}  // namespace hyms::telemetry
