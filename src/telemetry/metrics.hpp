#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace hyms::telemetry {

/// The metric plane of the telemetry layer: a table of gauges sorted by
/// name. Components write their run totals into it from flush_telemetry()
/// once a run is over, so nothing here sits on a hot path, and a run with no
/// hub installed never touches it.
class MetricsRegistry {
 public:
  /// Set gauge `name` to `value`; the last write wins.
  void set(std::string_view name, double value) {
    gauges_.insert_or_assign(std::string(name), value);
  }

  /// The last value set for `name`, or nullopt if it was never set.
  [[nodiscard]] std::optional<double> value(std::string_view name) const;

  /// The table as CSV, sorted by name: the header
  /// "metric,kind,value,count,p50,p95,p99" and one "name,gauge,value,,,,"
  /// row per gauge.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::map<std::string, double, std::less<>> gauges_;
};

}  // namespace hyms::telemetry
