#include "core/trace.hpp"

#include <algorithm>

namespace hyms::core {

std::string to_string(PlayoutAction action) {
  switch (action) {
    case PlayoutAction::kFresh: return "fresh";
    case PlayoutAction::kDuplicate: return "duplicate";
    case PlayoutAction::kSyncPause: return "sync-pause";
    case PlayoutAction::kSyncSkip: return "sync-skip";
    case PlayoutAction::kOverflowDrop: return "overflow-drop";
    case PlayoutAction::kLateDiscard: return "late-discard";
    case PlayoutAction::kGapSkip: return "gap-skip";
    case PlayoutAction::kRebuffer: return "rebuffer";
  }
  return "?";
}

namespace {

/// Position of `name` in `names`, or names.size() when absent.
std::size_t position_of(const std::vector<std::string>& names,
                        std::string_view name) {
  return static_cast<std::size_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

/// Position of `name` in `names`, appending it first if new.
std::uint32_t intern(std::vector<std::string>& names, std::string_view name) {
  const std::size_t pos = position_of(names, name);
  if (pos == names.size()) names.emplace_back(name);
  return static_cast<std::uint32_t>(pos);
}

}  // namespace

std::uint32_t PlayoutTrace::intern_stream(std::string_view name) {
  const std::uint32_t id = intern(stream_names_, name);
  stats_.resize(stream_names_.size());
  return id;
}

std::uint32_t PlayoutTrace::intern_group(std::string_view name) {
  const std::uint32_t id = intern(group_names_, name);
  skew_.resize(group_names_.size());
  return id;
}

void PlayoutTrace::note(std::uint32_t stream, PlayoutAction action,
                        std::int64_t frame_index, Time at,
                        Time content_position) {
  StreamPlayoutStats& s = stats_[stream];
  switch (action) {
    case PlayoutAction::kFresh:
      if (s.fresh == 0) s.first_play = at;
      s.last_play = at;
      ++s.fresh;
      break;
    case PlayoutAction::kDuplicate: ++s.duplicates; break;
    case PlayoutAction::kSyncPause: ++s.sync_pauses; break;
    case PlayoutAction::kSyncSkip: ++s.sync_skips; break;
    case PlayoutAction::kOverflowDrop: ++s.overflow_drops; break;
    case PlayoutAction::kLateDiscard: ++s.late_discards; break;
    case PlayoutAction::kGapSkip: ++s.gap_skips; break;
    case PlayoutAction::kRebuffer: ++s.rebuffers; break;
  }
  if (record_events_) {
    records_.push_back(
        EventRec{stream, action, frame_index, at, content_position});
  }
}

void PlayoutTrace::note(PlayoutEvent event) {
  note(intern_stream(event.stream_id), event.action, event.frame_index,
       event.at, event.content_position);
}

void PlayoutTrace::note_skew(const std::string& sync_group, Time skew) {
  note_skew(intern_group(sync_group), skew);
}

std::vector<PlayoutEvent> PlayoutTrace::events() const {
  std::vector<PlayoutEvent> out;
  out.reserve(records_.size());
  for (const EventRec& rec : records_) {
    out.push_back(PlayoutEvent{stream_names_[rec.stream], rec.action,
                               rec.frame_index, rec.at, rec.content_position});
  }
  return out;
}

const StreamPlayoutStats& PlayoutTrace::stream(const std::string& id) const {
  const std::size_t pos = position_of(stream_names_, id);
  if (pos == stream_names_.size()) {
    static const StreamPlayoutStats kEmpty{};
    return kEmpty;
  }
  return stats_[pos];
}

std::vector<std::pair<std::string, StreamPlayoutStats>> PlayoutTrace::streams()
    const {
  std::vector<std::pair<std::string, StreamPlayoutStats>> out;
  out.reserve(stats_.size());
  for (std::size_t id = 0; id < stats_.size(); ++id) {
    out.emplace_back(stream_names_[id], stats_[id]);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

const util::Sampler& PlayoutTrace::skew_ms(const std::string& group) const {
  const std::size_t pos = position_of(group_names_, group);
  if (pos == group_names_.size()) {
    static const util::Sampler kEmpty{};
    return kEmpty;
  }
  return skew_[pos];
}

double PlayoutTrace::max_abs_skew_ms() const {
  double max_skew = 0.0;
  for (const util::Sampler& sampler : skew_) {
    if (!sampler.empty()) max_skew = std::max(max_skew, sampler.max());
  }
  return max_skew;
}

std::string PlayoutTrace::events_csv() const {
  std::string out = "stream,action,frame,at_us,pos_us\n";
  for (const EventRec& rec : records_) {
    out += stream_names_[rec.stream];
    out += ',';
    out += to_string(rec.action);
    out += ',';
    out += std::to_string(rec.frame_index);
    out += ',';
    out += std::to_string(rec.at.us());
    out += ',';
    out += std::to_string(rec.content_position.us());
    out += '\n';
  }
  return out;
}

StreamPlayoutStats PlayoutTrace::totals() const {
  StreamPlayoutStats total;
  bool any_play = false;
  for (const StreamPlayoutStats& s : stats_) {
    total.fresh += s.fresh;
    total.duplicates += s.duplicates;
    total.sync_pauses += s.sync_pauses;
    total.sync_skips += s.sync_skips;
    total.overflow_drops += s.overflow_drops;
    total.late_discards += s.late_discards;
    total.gap_skips += s.gap_skips;
    total.rebuffers += s.rebuffers;
    // Playing span across streams: earliest first slot to latest last slot
    // (streams that never played a fresh slot contribute nothing).
    if (s.fresh > 0) {
      total.first_play =
          any_play ? std::min(total.first_play, s.first_play) : s.first_play;
      total.last_play = std::max(total.last_play, s.last_play);
      any_play = true;
    }
  }
  return total;
}

}  // namespace hyms::core
