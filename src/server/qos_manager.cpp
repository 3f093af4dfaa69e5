#include "server/qos_manager.hpp"

#include "util/log.hpp"

namespace hyms::server {

namespace {
/// A report is bad when its RR interarrival jitter exceeds this...
constexpr double kJitterDegradeMs = 80.0;
/// ...or its APP("QOSM") buffer_ms says the client's buffer is this low.
constexpr double kBufferLowMs = 100.0;
}  // namespace

std::size_t ServerQosManager::attach(MediaStreamSession* session) {
  StreamState state;
  state.session = session;
  streams_.push_back(state);
  return streams_.size() - 1;
}

void ServerQosManager::detach_all() { streams_.clear(); }

bool ServerQosManager::report_is_bad(const MediaStreamSession& session,
                                     const rtp::ReceiverFeedback& fb) const {
  if (fb.fraction_lost() > config_.loss_degrade) return true;
  const double jitter_ms = static_cast<double>(fb.block.interarrival_jitter) *
                           1000.0 / session.clock_rate();
  if (jitter_ms > kJitterDegradeMs) return true;
  for (const auto& [key, value] : fb.app_metrics) {
    if (key == "buffer_ms" && value < kBufferLowMs) return true;
  }
  return false;
}

void ServerQosManager::on_feedback(std::size_t stream,
                                   const rtp::ReceiverFeedback& feedback) {
  if (!config_.enabled) return;
  if (stream >= streams_.size()) return;
  StreamState& state = streams_[stream];
  if (state.session->stopped()) return;
  ++stats_.reports;

  const bool bad = report_is_bad(*state.session, feedback);
  state.last_bad = bad;
  if (bad) {
    ++stats_.bad_reports;
    state.good_streak = 0;
    try_degrade();
    return;
  }
  ++state.good_streak;

  // Upgrade only when every live stream has been clean for a while.
  bool all_clean = true;
  for (const StreamState& other : streams_) {
    if (other.session->stopped() || other.session->flow_complete()) continue;
    if (other.good_streak < config_.good_reports_for_upgrade) {
      all_clean = false;
      break;
    }
  }
  if (all_clean) try_upgrade();
}

MediaStreamSession* ServerQosManager::pick_degrade_victim(
    media::MediaType type) const {
  // Among live streams of this type, degrade the one currently at the best
  // quality (it has the most headroom and the most bandwidth to give back).
  MediaStreamSession* best = nullptr;
  for (const StreamState& state : streams_) {
    MediaStreamSession* s = state.session;
    if (s->media_type() != type || s->stopped() || s->flow_complete() ||
        s->at_floor()) {
      continue;
    }
    if (best == nullptr || s->current_level() < best->current_level()) {
      best = s;
    }
  }
  return best;
}

MediaStreamSession* ServerQosManager::pick_upgrade_candidate(
    media::MediaType type) const {
  // Upgrade the most-degraded stream of this type first.
  MediaStreamSession* worst = nullptr;
  for (const StreamState& state : streams_) {
    MediaStreamSession* s = state.session;
    if (s->media_type() != type || s->stopped() || s->flow_complete() ||
        s->at_best()) {
      continue;
    }
    if (worst == nullptr || s->current_level() > worst->current_level()) {
      worst = s;
    }
  }
  return worst;
}

void ServerQosManager::try_degrade() {
  if (sim_.now() - last_action_ < config_.action_hold) return;

  // §4 grading order: video first, audio only when video is exhausted
  // (or the reverse, for the A4 ablation).
  const auto first = config_.degrade_order == DegradeOrder::kVideoFirst
                         ? media::MediaType::kVideo
                         : media::MediaType::kAudio;
  const auto second = first == media::MediaType::kVideo
                          ? media::MediaType::kAudio
                          : media::MediaType::kVideo;
  MediaStreamSession* victim = pick_degrade_victim(first);
  if (victim == nullptr) {
    victim = pick_degrade_victim(second);
  }
  if (victim != nullptr) {
    victim->degrade();
    ++stats_.degrades;
    if (victim->media_type() == media::MediaType::kVideo) {
      ++stats_.degrades_video;
    } else {
      ++stats_.degrades_audio;
    }
    last_action_ = sim_.now();
    note_grade("degrade", *victim);
    LOG_DEBUG << "qos: degraded stream " << victim->spec().id << " to level "
              << victim->current_level();
    return;
  }

  if (config_.stop_at_floor) {
    // Everything is at the user's floor and the network still hurts: stop
    // the heaviest stream (video before audio).
    for (media::MediaType type :
         {media::MediaType::kVideo, media::MediaType::kAudio}) {
      for (StreamState& state : streams_) {
        MediaStreamSession* s = state.session;
        if (s->media_type() == type && !s->stopped() && !s->flow_complete()) {
          s->stop();
          ++stats_.stops;
          last_action_ = sim_.now();
          note_grade("stop", *s);
          LOG_DEBUG << "qos: stopped stream " << s->spec().id
                    << " (at floor)";
          return;
        }
      }
    }
  }
}

void ServerQosManager::try_upgrade() {
  if (sim_.now() - last_action_ < config_.action_hold) return;

  // Conservative restore order: the protected medium first (cheap to
  // restore), the sacrificed one last.
  const auto protected_type =
      config_.degrade_order == DegradeOrder::kVideoFirst
          ? media::MediaType::kAudio
          : media::MediaType::kVideo;
  const auto sacrificed_type = protected_type == media::MediaType::kAudio
                                   ? media::MediaType::kVideo
                                   : media::MediaType::kAudio;
  MediaStreamSession* candidate = pick_upgrade_candidate(protected_type);
  if (candidate == nullptr) {
    candidate = pick_upgrade_candidate(sacrificed_type);
  }
  if (candidate == nullptr) return;
  candidate->upgrade();
  ++stats_.upgrades;
  last_action_ = sim_.now();
  note_grade("upgrade", *candidate);
  // Demand fresh evidence before the next upgrade step.
  for (StreamState& state : streams_) state.good_streak = 0;
  LOG_DEBUG << "qos: upgraded stream " << candidate->spec().id << " to level "
            << candidate->current_level();
}

void ServerQosManager::note_grade(const char* action,
                                  const MediaStreamSession& session) {
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  // Grade transitions are rare (action_hold-spaced), so per-call interning
  // of the composite name is fine here.
  auto& tr = hub->tracer();
  tr.instant(tr.track("server/qos"),
             std::string(action) + "/" + session.spec().id, sim_.now(),
             static_cast<double>(session.current_level()));
}

void ServerQosManager::flush_telemetry() {
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  auto& m = hub->metrics();
  m.set("server/qos/reports", static_cast<double>(stats_.reports));
  m.set("server/qos/bad_reports", static_cast<double>(stats_.bad_reports));
  m.set("server/qos/degrades", static_cast<double>(stats_.degrades));
  m.set("server/qos/upgrades", static_cast<double>(stats_.upgrades));
  m.set("server/qos/stops", static_cast<double>(stats_.stops));
}

}  // namespace hyms::server
