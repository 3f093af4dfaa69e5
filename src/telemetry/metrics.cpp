#include "telemetry/metrics.hpp"

#include <cstdio>

namespace hyms::telemetry {

std::optional<double> MetricsRegistry::value(std::string_view name) const {
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

std::string MetricsRegistry::to_csv() const {
  std::string out = "metric,kind,value,count,p50,p95,p99\n";
  char buf[64];
  for (const auto& [name, value] : gauges_) {
    std::snprintf(buf, sizeof(buf), ",gauge,%.6g,,,,\n", value);
    out += name;
    out += buf;
  }
  return out;
}

}  // namespace hyms::telemetry
