#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace hyms::core {

/// What the playout process did at one content slot.
enum class PlayoutAction : std::uint8_t {
  kFresh = 0,       // the right frame was buffered and played on time
  kDuplicate,       // buffer starved: previous frame repeated (underflow)
  kSyncPause,       // leading stream paused by the skew controller
  kSyncSkip,        // lagging stream jumped forward by the skew controller
  kOverflowDrop,    // frames discarded because the buffer overflowed
  kLateDiscard,     // frame arrived after its slot had passed
  kGapSkip,         // slot's frame never arrived (lost)
  kRebuffer,        // persistent starvation paused the presentation to refill
};

[[nodiscard]] std::string to_string(PlayoutAction action);

/// String-keyed view of one playout event, for tests/examples. Hot callers
/// (the playout scheduler) use the dense-id note() overload instead and
/// never build one of these.
struct PlayoutEvent {
  std::string stream_id;
  PlayoutAction action;
  std::int64_t frame_index = 0;  // content slot involved
  Time at;                       // simulation time of the event
  Time content_position;         // stream's scenario-relative content time
};

/// Per-stream playout accounting used by every experiment and example.
struct StreamPlayoutStats {
  std::int64_t fresh = 0;
  std::int64_t duplicates = 0;
  std::int64_t sync_pauses = 0;
  std::int64_t sync_skips = 0;
  std::int64_t overflow_drops = 0;
  std::int64_t late_discards = 0;
  std::int64_t gap_skips = 0;
  std::int64_t rebuffers = 0;
  Time first_play;
  Time last_play;

  [[nodiscard]] std::int64_t total_slots() const {
    return fresh + duplicates + sync_pauses + gap_skips;
  }
  /// Fraction of slots that showed the intended content.
  [[nodiscard]] double fresh_ratio() const {
    const auto total = total_slots();
    return total > 0 ? static_cast<double>(fresh) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Aggregated record of an entire presentation run: the event log (optional,
/// for tests and examples), per-stream stats, and intermedia skew samples.
///
/// Streams and sync groups get dense ids in first-seen order (0, 1, ...),
/// each the position of its name in a plain name list, so the per-slot
/// note() fast path indexes flat vectors. A presentation has a handful of
/// streams, so a name is found by a scan. The string-keyed
/// note()/stream()/skew_ms() accessors look names up on the way in and exist
/// for tests and call sites off the per-frame path.
class PlayoutTrace {
 public:
  void set_record_events(bool record) { record_events_ = record; }

  /// The id of a stream/sync-group name, minted on first sight. Called once
  /// per stream at attach time; the id addresses the fast-path overloads.
  std::uint32_t intern_stream(std::string_view name);
  std::uint32_t intern_group(std::string_view name);

  /// Per-slot fast path: flat vector indexing, no string handling.
  void note(std::uint32_t stream, PlayoutAction action,
            std::int64_t frame_index, Time at, Time content_position);
  void note_skew(std::uint32_t group, Time skew) {
    skew_[group].add(skew.abs().to_ms());
  }

  /// String-keyed conveniences (intern on the way in).
  void note(PlayoutEvent event);
  void note_skew(const std::string& sync_group, Time skew);

  /// Recorded events with stream names materialized (requires
  /// set_record_events(true) before the run). Built on demand.
  [[nodiscard]] std::vector<PlayoutEvent> events() const;
  [[nodiscard]] std::size_t event_count() const { return records_.size(); }

  [[nodiscard]] const StreamPlayoutStats& stream(const std::string& id) const;
  /// (name, stats) pairs sorted by stream name — the iteration order the old
  /// std::map-backed storage gave callers.
  [[nodiscard]] std::vector<std::pair<std::string, StreamPlayoutStats>>
  streams() const;

  /// Skew samples per sync group, in milliseconds (absolute value).
  [[nodiscard]] const util::Sampler& skew_ms(const std::string& group) const;
  [[nodiscard]] double max_abs_skew_ms() const;

  /// Totals across all streams.
  [[nodiscard]] StreamPlayoutStats totals() const;

  /// Render recorded events as CSV ("stream,action,frame,at_us,pos_us\n"
  /// header included) for offline analysis/plotting. Requires
  /// set_record_events(true) before the run.
  [[nodiscard]] std::string events_csv() const;

 private:
  /// Compact event record: 32 bytes, no string per event.
  struct EventRec {
    std::uint32_t stream;
    PlayoutAction action;
    std::int64_t frame_index;
    Time at;
    Time content_position;
  };

  bool record_events_ = false;
  std::vector<std::string> stream_names_;  // id -> name, first-seen order
  std::vector<std::string> group_names_;
  std::vector<EventRec> records_;
  std::vector<StreamPlayoutStats> stats_;  // indexed like stream_names_
  std::vector<util::Sampler> skew_;        // indexed like group_names_
};

}  // namespace hyms::core
