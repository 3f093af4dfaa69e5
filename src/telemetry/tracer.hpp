#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace hyms::telemetry {

/// Interned trace-track handle. A track is one horizontal lane on the
/// Perfetto timeline — per session, per stream, per link — and maps to one
/// "thread" of the trace-event JSON's single emulated process.
using TrackId = std::uint32_t;
/// Interned event-name handle; hot sites intern once and reuse.
using NameId = std::uint32_t;
inline constexpr std::uint32_t kInvalidTraceId = 0xFFFF'FFFFu;

/// What one trace record means (subset of the Chrome trace-event phases).
enum class Phase : std::uint8_t {
  kBegin = 0,   // "B": span opens on the track
  kEnd,         // "E": most recent open span on the track closes
  kInstant,     // "i": point event
  kCounter,     // "C": numeric sample; Perfetto renders a counter lane
  kFlowStart,   // "s": flow (binding arrow) originates here; id in value
  kFlowStep,    // "t": flow passes through here; id in value
  kFlowEnd,     // "f": flow terminates here; id in value
};

/// Sim-time span/event tracer. Recording is passive — it never schedules
/// simulator events — so an instrumented run is event-for-event identical to
/// an uninstrumented one; the only difference is this side log. Records are
/// appended to a flat vector of 24-byte entries with interned name/track
/// ids, so a span or counter sample on the hot path is a bounds-checked
/// push_back, and the formatting cost is paid once at export.
class SpanTracer {
 public:
  /// Recording toggle: a disabled tracer drops records at the guard branch.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Cap against runaway recordings (default 4M records ~ 96 MB). Records
  /// past the cap are counted in dropped() instead of stored, so exports
  /// from a capped run say so instead of silently truncating.
  void set_max_records(std::size_t cap) { max_records_ = cap; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

  TrackId track(std::string_view name);
  NameId name(std::string_view event_name);

  // --- recording (interned-id fast path) ------------------------------------
  void begin(TrackId track, NameId name, Time at) {
    record(Phase::kBegin, track, name, at, 0.0);
  }
  void end(TrackId track, Time at) {
    record(Phase::kEnd, track, kInvalidTraceId, at, 0.0);
  }
  void instant(TrackId track, NameId name, Time at, double value = 0.0) {
    record(Phase::kInstant, track, name, at, value);
  }
  void counter(TrackId track, NameId name, Time at, double value) {
    record(Phase::kCounter, track, name, at, value);
  }
  /// Flow events: one binding arrow per id, started once, stepped through
  /// any number of tracks, ended once. The id (TraceContext::flow_id) rides
  /// in the record's value slot.
  void flow_start(TrackId track, NameId name, Time at, std::uint64_t id) {
    record(Phase::kFlowStart, track, name, at, static_cast<double>(id));
  }
  void flow_step(TrackId track, NameId name, Time at, std::uint64_t id) {
    record(Phase::kFlowStep, track, name, at, static_cast<double>(id));
  }
  void flow_end(TrackId track, NameId name, Time at, std::uint64_t id) {
    record(Phase::kFlowEnd, track, name, at, static_cast<double>(id));
  }

  // --- recording (convenience; interns per call) ----------------------------
  void begin(TrackId t, std::string_view n, Time at) { begin(t, name(n), at); }
  void instant(TrackId t, std::string_view n, Time at, double value = 0.0) {
    instant(t, name(n), at, value);
  }
  void counter(TrackId t, std::string_view n, Time at, double value) {
    counter(t, name(n), at, value);
  }

  [[nodiscard]] std::size_t record_count() const { return records_.size(); }
  [[nodiscard]] std::size_t track_count() const { return track_names_.size(); }
  [[nodiscard]] const std::string& track_name(TrackId id) const {
    return track_names_[id];
  }

  /// One recorded event, for tests and custom exporters.
  struct Record {
    std::int64_t ts_us;
    TrackId track;
    NameId name;  // kInvalidTraceId for kEnd
    Phase phase;
    double value;
  };
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Chrome/Perfetto trace-event JSON ({"traceEvents":[...]}): loads
  /// directly in ui.perfetto.dev or chrome://tracing. All tracks live in one
  /// emulated process (pid 1); each track is a named thread.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Flat CSV of the raw records: "ts_us,track,phase,name,value\n".
  [[nodiscard]] std::string to_csv() const;

  void reset() {
    records_.clear();
    dropped_ = 0;
  }

 private:
  void record(Phase phase, TrackId track, NameId name, Time at, double value) {
    if (!enabled_) return;
    if (records_.size() >= max_records_) {
      ++dropped_;
      return;
    }
    records_.push_back(Record{at.us(), track, name, phase, value});
  }

  bool enabled_ = true;
  std::size_t max_records_ = 4u << 20;
  std::int64_t dropped_ = 0;
  std::vector<Record> records_;
  std::vector<std::string> track_names_;   // track id -> name
  std::vector<TrackId> tracks_by_name_;    // track ids sorted by name
  std::vector<std::string> event_names_;   // name id -> name
  std::vector<NameId> names_by_name_;      // name ids sorted by name
};

}  // namespace hyms::telemetry
