#include "core/playout.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace hyms::core {

namespace {
/// Poll period for one-shot media (images) waiting for their payload.
constexpr Time kImagePoll = Time::msec(50);
/// How often a rebuffering presentation checks whether it has refilled.
constexpr Time kRebufferPoll = Time::msec(50);
}  // namespace

ConsumeMode default_mode(media::MediaType type) {
  switch (type) {
    case media::MediaType::kAudio: return ConsumeMode::kContinuityDriven;
    case media::MediaType::kVideo: return ConsumeMode::kDeadlineDriven;
    case media::MediaType::kImage:
    case media::MediaType::kText: return ConsumeMode::kOneShot;
  }
  return ConsumeMode::kDeadlineDriven;
}

PlayoutScheduler::PlayoutScheduler(sim::Simulator& sim,
                                   PresentationScenario scenario,
                                   PlayoutConfig config)
    : sim_(sim), scenario_(std::move(scenario)), config_(config) {
  trace_.set_record_events(config_.record_events);
  if (auto* hub = sim_.telemetry()) {
    auto& tr = hub->tracer();
    for (std::uint8_t a = 0; a < 8; ++a) {
      n_action_[a] = tr.name(to_string(static_cast<PlayoutAction>(a)));
    }
    n_buffer_ms_ = tr.name("buffer_ms");
    n_skew_ms_ = tr.name("skew_ms");
    n_rebuffer_ = tr.name("rebuffer");
    n_playout_start_ = tr.name("playout_start");
  }
  for (std::size_t i = 0; i < scenario_.links.size(); ++i) {
    link_timers_.push_back(std::make_unique<sim::Timer>(sim_));
  }
}

void PlayoutScheduler::attach_stream(const std::string& stream_id,
                                     buffer::MediaBuffer* buffer,
                                     Time frame_interval,
                                     std::int64_t frame_count) {
  const StreamSpec* spec = scenario_.find_stream(stream_id);
  if (spec == nullptr) {
    LOG_WARN << "attach_stream: '" << stream_id << "' not in scenario";
    return;
  }
  auto process = std::make_unique<Process>(sim_);
  process->spec = *spec;
  process->buffer = buffer;
  process->mode = default_mode(spec->type);
  process->interval =
      frame_interval > Time::zero() ? frame_interval : kImagePoll;
  process->frame_count = std::max<std::int64_t>(1, frame_count);
  process->trace_id = trace_.intern_stream(stream_id);
  if (!spec->sync_group.empty()) {
    process->group_id = trace_.intern_group(spec->sync_group);
  }
  if (auto* hub = sim_.telemetry()) {
    auto& tr = hub->tracer();
    process->track = tr.track("client/playout/" + stream_id);
    if (!spec->sync_group.empty()) {
      process->group_track = tr.track("client/sync/" + spec->sync_group);
    }
  }
  // Keep the array sorted by stream id; replace a re-attached stream.
  const auto pos = std::lower_bound(
      processes_.begin(), processes_.end(), stream_id,
      [](const std::unique_ptr<Process>& p, const std::string& id) {
        return p->spec.id < id;
      });
  if (pos != processes_.end() && (*pos)->spec.id == stream_id) {
    *pos = std::move(process);
  } else {
    processes_.insert(pos, std::move(process));
  }
}

const PlayoutScheduler::Process* PlayoutScheduler::find_process(
    std::string_view stream_id) const {
  const auto pos = std::lower_bound(
      processes_.begin(), processes_.end(), stream_id,
      [](const std::unique_ptr<Process>& p, std::string_view id) {
        return p->spec.id < id;
      });
  if (pos != processes_.end() && (*pos)->spec.id == stream_id) {
    return pos->get();
  }
  return nullptr;
}

void PlayoutScheduler::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  // Resuming at start_offset places the scenario clock's zero in the past:
  // slot k of a stream still ticks at epoch_ + start + k*interval, and the
  // first unplayed slot (k covering the offset) lands at now + initial_delay
  // or later — the same prefill window a fresh start gets.
  epoch_ = sim_.now() + config_.initial_delay - config_.start_offset;
  for (auto& process : processes_) start_process(*process);
  arm_timed_links();
  check_all_finished();  // every stream may predate the resume offset
}

void PlayoutScheduler::start_process(Process& p) {
  p.active = true;
  if (config_.start_offset > Time::zero() && p.mode != ConsumeMode::kOneShot &&
      p.interval > Time::zero()) {
    const Time already_played = config_.start_offset - p.spec.start;
    if (already_played > Time::zero()) {
      p.next_index = (already_played.us() + p.interval.us() - 1) /
                     p.interval.us();
    }
    if (p.next_index >= p.frame_count) {
      // The whole stream played before the outage; born finished.
      p.done = true;
      p.active = false;
      return;
    }
  }
  if (!flow_emitted_ && flow_ctx_.valid() &&
      p.track != telemetry::kInvalidTraceId) {
    if (auto* hub = sim_.telemetry(); hub != nullptr && hub->tracing()) {
      // Terminate the StreamSetup request's flow at the first playout start.
      hub->tracer().flow_end(p.track, n_playout_start_, sim_.now(),
                             flow_ctx_.flow_id());
      hub->tracer().instant(p.track, n_playout_start_, sim_.now());
      flow_emitted_ = true;
    }
  }
  Time first_tick = epoch_ + p.spec.start + p.interval * p.next_index;
  if (first_tick < sim_.now()) {
    // One-shot objects scheduled before the resume offset replay (the image
    // stays visible); play as soon as the refetched payload can be here.
    first_tick = sim_.now() + config_.initial_delay;
  }
  arm_tick(p, first_tick);
}

void PlayoutScheduler::arm_tick(Process& p, Time when) {
  p.tick.arm_at(when, [this, proc = &p] { tick(*proc); });
}

void PlayoutScheduler::arm_timed_links() {
  for (std::size_t i = 0; i < scenario_.links.size(); ++i) {
    const LinkSpec& link = scenario_.links[i];
    // A link at or before now fired already (before a pause, or before the
    // outage a recovered presentation resumes from).
    if (!link.at || epoch_ + *link.at <= sim_.now()) continue;
    link_timers_[i]->arm_at(epoch_ + *link.at, [this, link] {
      // Paused presentations hold their links; a *finished* one still
      // fires them — the "writer's way" advances past the last stream.
      if (!paused_ && on_timed_link_) on_timed_link_(link);
    });
  }
}

void PlayoutScheduler::pause() {
  if (paused_ || !started_) return;
  paused_ = true;
  running_ = false;
  pause_began_ = sim_.now();
  for (auto& process : processes_) process->tick.cancel();
  for (auto& timer : link_timers_) timer->cancel();
}

void PlayoutScheduler::resume() {
  if (!paused_ || !started_) return;
  paused_ = false;
  running_ = true;
  epoch_ += sim_.now() - pause_began_;  // scenario clock stood still
  for (auto& process : processes_) {
    if (process->done || !process->active) continue;
    arm_tick(*process, sim_.now() + process->interval);
  }
  arm_timed_links();
}

bool PlayoutScheduler::finished() const {
  for (const auto& process : processes_) {
    if (!process->done) return false;
  }
  return started_;
}

Time PlayoutScheduler::content_position(const std::string& stream_id) const {
  const Process* process = find_process(stream_id);
  return process == nullptr ? Time::zero() : process->content_position();
}

void PlayoutScheduler::play_slot(Process& p, PlayoutAction action) {
  trace_.note(p.trace_id, action, p.next_index, sim_.now(),
              p.content_position());
  if (auto* hub = sim_.telemetry()) {
    // Fresh slots are the steady state; tracing every one would drown the
    // timeline, so only the anomalies become instants.
    if (action != PlayoutAction::kFresh) {
      hub->tracer().instant(
          p.track, n_action_[static_cast<std::uint8_t>(action)], sim_.now(),
          static_cast<double>(p.next_index));
    }
  }
}

void PlayoutScheduler::handle_overflow(Process& p) {
  if (!config_.drop_on_overflow || p.buffer == nullptr) return;
  // One-shot objects (images, text) are not a stream: their single entry may
  // legitimately "fill" the buffer far past any time window.
  if (p.mode == ConsumeMode::kOneShot) return;
  if (!p.buffer->above_high_watermark()) return;
  // Drain the oldest frames until the buffer is back at its time window,
  // then jump the content position to the new head (the dropped content's
  // slots are gone).
  while (p.buffer->occupancy_time() > p.buffer->config().time_window &&
         !p.buffer->empty()) {
    const std::int64_t head_index = p.buffer->peek()->index;
    p.buffer->drop_before(head_index + 1);
    play_slot(p, PlayoutAction::kOverflowDrop);
  }
  if (const auto* head = p.buffer->peek();
      head != nullptr && head->index > p.next_index) {
    p.next_index = head->index;
  }
}

void PlayoutScheduler::enforce_sync(Process& p) {
  const SyncPolicy& policy = config_.sync;
  if (p.spec.sync_group.empty()) return;

  // Collect the live members of my sync group.
  std::vector<Process*> group;
  for (auto& process : processes_) {
    if (process->spec.sync_group == p.spec.sync_group && process->active &&
        !process->done) {
      group.push_back(process.get());
    }
  }
  if (group.size() < 2) return;

  Process* leader = group.front();
  Process* laggard = group.front();
  for (Process* member : group) {
    if (member->content_position() > leader->content_position()) {
      leader = member;
    }
    if (member->content_position() < laggard->content_position()) {
      laggard = member;
    }
  }
  const Time skew = leader->content_position() - laggard->content_position();
  // One member (the lexicographically first: processes_ is sorted by stream
  // id, so that is group.front()) samples the group's skew so each group
  // tick contributes a single data point. Sampling happens even with the
  // controller disabled — the E4 experiment compares exactly that.
  if (&p == group.front()) {
    trace_.note_skew(p.group_id, skew);
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().counter(p.group_track, n_skew_ms_, sim_.now(),
                            skew.to_ms());
    }
  }
  if (!policy.enabled) return;
  if (skew <= policy.max_skew) return;

  const Time excess = skew - policy.target_skew;

  if (&p == laggard && policy.allow_skip && !p.buffer->empty()) {
    // Jump forward through buffered (and lost) content to catch up.
    const auto slots =
        std::max<std::int64_t>(1, excess.us() / p.interval.us());
    for (std::int64_t i = 0; i < slots; ++i) {
      play_slot(p, PlayoutAction::kSyncSkip);
      ++p.next_index;
    }
    p.buffer->drop_before(p.next_index);
    return;
  }

  if (&p == leader && policy.allow_pause) {
    // Pause only when the laggard cannot skip itself back into sync.
    const bool laggard_can_skip =
        policy.allow_skip && laggard->buffer != nullptr &&
        !laggard->buffer->empty();
    if (!laggard_can_skip) {
      p.pause_ticks = std::max<std::int64_t>(1, excess.us() / p.interval.us());
    }
  }
}

void PlayoutScheduler::tick(Process& p) {
  if (!running_ || p.done) return;

  if (auto* hub = sim_.telemetry()) {
    if (p.buffer != nullptr) {
      hub->tracer().counter(p.track, n_buffer_ms_, sim_.now(),
                            p.buffer->occupancy_time().to_ms());
    }
  }

  enforce_sync(p);
  handle_overflow(p);

  bool advanced_past_end = false;

  if (p.pause_ticks > 0) {
    --p.pause_ticks;
    play_slot(p, PlayoutAction::kSyncPause);
  } else {
    // Discard frames whose slot has already passed.
    while (const auto* head = p.buffer->peek()) {
      if (head->index >= p.next_index) break;
      p.buffer->drop_before(head->index + 1);
      play_slot(p, PlayoutAction::kLateDiscard);
    }

    const auto* head = p.buffer->peek();
    switch (p.mode) {
      case ConsumeMode::kOneShot:
        if (head != nullptr) {
          play_slot(p, PlayoutAction::kFresh);
          p.buffer->pop();
          p.next_index = p.frame_count;  // done
        }
        break;
      case ConsumeMode::kDeadlineDriven:
        if (head != nullptr && head->index == p.next_index) {
          play_slot(p, PlayoutAction::kFresh);
          p.buffer->pop();
          p.starved_run = 0;
        } else if (head != nullptr) {
          play_slot(p, PlayoutAction::kGapSkip);  // lost slot, freeze frame
          ++p.starved_run;  // missing data counts toward the rebuffer trigger
        } else {
          play_slot(p, PlayoutAction::kDuplicate);  // starved, freeze frame
          ++p.starved_run;
        }
        ++p.next_index;
        break;
      case ConsumeMode::kContinuityDriven:
        if (head != nullptr && head->index == p.next_index) {
          play_slot(p, PlayoutAction::kFresh);
          p.buffer->pop();
          ++p.next_index;
          p.starved_run = 0;
        } else if (head != nullptr) {
          // The slot's frame is lost but later content is here: the slot is
          // unrecoverable, consume it as a gap.
          play_slot(p, PlayoutAction::kGapSkip);
          ++p.next_index;
          ++p.starved_run;  // missing data counts toward the rebuffer trigger
        } else if (p.starved_run >= config_.starvation_advance_after) {
          // Liveness: the data is clearly not coming (e.g. the stream's tail
          // was lost). Consume remaining slots as gaps so the presentation
          // can still end.
          play_slot(p, PlayoutAction::kGapSkip);
          ++p.next_index;
        } else {
          // Starved: play filler WITHOUT advancing — the content position
          // now lags the wall clock (the skew the controller watches).
          play_slot(p, PlayoutAction::kDuplicate);
          ++p.starved_run;
        }
        break;
    }
  }

  if (p.next_index >= p.frame_count) {
    advanced_past_end = true;
  }

  if (advanced_past_end) {
    finish_process(p);
    return;
  }

  // Persistent starvation: optionally stop playing filler and rebuffer —
  // unless the liveness cap has engaged (the data is not coming; gap-skip
  // to the end instead of pausing forever).
  if (config_.rebuffer.enabled && !rebuffering_ &&
      p.starved_run >= config_.rebuffer.starvation_ticks &&
      p.starved_run < config_.starvation_advance_after) {
    begin_rebuffer(p);
    return;  // pause() cancelled every tick; resume re-arms them
  }

  arm_tick(p, sim_.now() + p.interval);
}

void PlayoutScheduler::begin_rebuffer(Process& p) {
  rebuffering_ = true;
  // starved_run keeps accumulating across rebuffer attempts so the
  // starvation_advance_after liveness cap still engages eventually.
  play_slot(p, PlayoutAction::kRebuffer);
  if (auto* hub = sim_.telemetry()) {
    hub->tracer().begin(p.track, n_rebuffer_, sim_.now());
  }
  pause();
  const Time began = sim_.now();
  rebuffer_poll_.arm_after(kRebufferPoll, [this, proc = &p, began] {
    poll_rebuffer(proc, began);
  });
}

void PlayoutScheduler::poll_rebuffer(Process* p, Time began) {
  if (!rebuffering_) return;
  const bool refilled =
      p->buffer != nullptr &&
      p->buffer->occupancy_time() >= config_.rebuffer.target;
  const bool timed_out = sim_.now() - began >= config_.rebuffer.max_wait;
  if (refilled || timed_out) {
    rebuffering_ = false;
    rebuffer_wait_total_ += sim_.now() - began;
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().end(p->track, sim_.now());
    }
    resume();
    return;
  }
  rebuffer_poll_.arm_after(kRebufferPoll,
                           [this, p, began] { poll_rebuffer(p, began); });
}

void PlayoutScheduler::finish_process(Process& p) {
  p.done = true;
  p.active = false;
  p.tick.cancel();
  check_all_finished();
}

void PlayoutScheduler::check_all_finished() {
  if (finished_notified_ || !finished()) return;
  finished_notified_ = true;
  running_ = false;
  if (on_finished_) on_finished_();
}

}  // namespace hyms::core
