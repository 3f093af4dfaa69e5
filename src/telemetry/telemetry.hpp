#pragma once

#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/qoe.hpp"
#include "telemetry/tracer.hpp"

namespace hyms::telemetry {

/// The telemetry plane of one simulated run: a MetricsRegistry (end-of-run
/// gauges), a SpanTracer (timeline) and a QoeCollector (per-session QoE). A
/// Hub is installed on a sim::Simulator via set_telemetry(); every component
/// reaches it through its simulator reference, so the disabled configuration
/// (no hub installed) costs exactly one null-check branch per call site, and
/// no component needs a telemetry constructor parameter.
///
/// Install the hub right after constructing the Simulator, before building
/// the network/deployment: components intern their trace tracks in their
/// constructors.
///
/// Recording is passive — it never schedules simulator events — so a traced
/// run is event-for-event identical to an untraced one.
class Hub {
 public:
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] SpanTracer& tracer() { return tracer_; }
  [[nodiscard]] const SpanTracer& tracer() const { return tracer_; }
  [[nodiscard]] QoeCollector& qoe() { return qoe_; }
  [[nodiscard]] const QoeCollector& qoe() const { return qoe_; }

  /// Convenience toggle mirrored onto the tracer. Metrics need none: they
  /// are written once, by the flush at the end of a run.
  void set_tracing(bool enabled) { tracer_.set_enabled(enabled); }
  [[nodiscard]] bool tracing() const { return tracer_.enabled(); }

  /// Write the tracer's Chrome/Perfetto trace-event JSON to `path`.
  /// Returns false (and logs) on I/O failure.
  bool write_trace_json(const std::string& path) const;
  /// Write the metric table as CSV to `path`.
  bool write_metrics_csv(const std::string& path) const;

 private:
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  QoeCollector qoe_;
};

}  // namespace hyms::telemetry
