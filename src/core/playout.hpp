#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/media_buffer.hpp"
#include "core/scenario.hpp"
#include "core/trace.hpp"
#include "sim/simulator.hpp"
#include "telemetry/trace_context.hpp"
#include "util/time.hpp"

namespace hyms::core {

/// Short-term intermedia synchronization policy (§4, after [LIT 92]): when
/// the content positions of a sync group drift past max_skew, the scheduler
/// skips the lagging stream forward through its buffer and/or pauses the
/// leading stream until positions realign to target_skew.
struct SyncPolicy {
  bool enabled = true;
  Time max_skew = Time::msec(80);
  Time target_skew = Time::msec(20);
  bool allow_skip = true;   // jump the lagging stream forward (drops content)
  bool allow_pause = true;  // hold the leading stream (duplicates frames)
};

/// Extension of the paper's future work ("improvement of the synchronization
/// method used in conjunction with the buffer's monitoring mechanisms"):
/// when a stream plays `starvation_ticks` consecutive slots without fresh
/// data (starved or gapped), pause the whole presentation and let the
/// buffers refill to `target` (bounded by `max_wait`), instead of playing
/// filler indefinitely — delayed frames get a chance to arrive.
struct RebufferPolicy {
  bool enabled = false;
  int starvation_ticks = 10;
  Time target = Time::msec(300);
  Time max_wait = Time::sec(3);
};

struct PlayoutConfig {
  /// The deliberate presentation start delay that prefills each media buffer
  /// to its media time window (§4).
  Time initial_delay = Time::msec(500);
  /// Scenario position to resume from (session recovery): the scenario clock
  /// starts here instead of zero. Continuous streams skip the slots already
  /// played before the outage (a stream wholly before the offset is born
  /// finished); one-shot objects replay (they stay visible); timed links
  /// earlier than the offset are considered fired.
  Time start_offset = Time::zero();
  SyncPolicy sync;
  RebufferPolicy rebuffer;
  /// Drain buffers above their high watermark by dropping oldest frames.
  bool drop_on_overflow = true;
  bool record_events = false;
  /// Liveness bound for continuity streams: after this many consecutive
  /// starved slots the process starts consuming slots as gaps (otherwise a
  /// stream whose tail is lost would stall the presentation forever).
  int starvation_advance_after = 250;
};

/// How a playout process consumes its buffer.
enum class ConsumeMode : std::uint8_t {
  /// Video: wall-clock slots; a missing frame freezes the previous one and
  /// the slot is gone (content stays aligned with the clock).
  kDeadlineDriven,
  /// Audio: continuity first; starvation stalls the content position (the
  /// stream then *lags* its sync peers until the skew controller acts).
  kContinuityDriven,
  /// Images: a single object, played the moment it is available.
  kOneShot,
};

[[nodiscard]] ConsumeMode default_mode(media::MediaType type);

/// The client-side playout scheduler of Fig. 3: one concurrent playout
/// process per stream (the paper's playout algorithm in §3.1), the buffer
/// occupancy monitor, and the short-term skew controller. The caller binds
/// each scenario stream to the MediaBuffer its transport feeds.
class PlayoutScheduler {
 public:
  using FinishedFn = std::function<void()>;
  using TimedLinkFn = std::function<void(const LinkSpec&)>;

  PlayoutScheduler(sim::Simulator& sim, PresentationScenario scenario,
                   PlayoutConfig config);
  PlayoutScheduler(const PlayoutScheduler&) = delete;
  PlayoutScheduler& operator=(const PlayoutScheduler&) = delete;

  /// Bind a scenario stream to its buffer. `frame_interval`/`frame_count`
  /// come from the stream setup handshake with the media server.
  void attach_stream(const std::string& stream_id,
                     buffer::MediaBuffer* buffer, Time frame_interval,
                     std::int64_t frame_count);

  /// Begin the presentation: processes fire at now + initial_delay + t_i.
  void start();
  /// Pause all playout processes (user pressed pause / link followed).
  void pause();
  /// Resume from the paused position.
  void resume();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] bool finished() const;

  [[nodiscard]] PlayoutTrace& trace() { return trace_; }
  [[nodiscard]] const PresentationScenario& scenario() const {
    return scenario_;
  }
  /// Simulation time the presentation's scenario clock started (T0).
  [[nodiscard]] Time presentation_epoch() const { return epoch_; }
  /// Scenario-relative content position of a stream (next slot to play).
  [[nodiscard]] Time content_position(const std::string& stream_id) const;

  void set_on_finished(FinishedFn fn) { on_finished_ = std::move(fn); }
  void set_on_timed_link(TimedLinkFn fn) { on_timed_link_ = std::move(fn); }

  /// Causal trace context of the StreamSetup request that produced this
  /// presentation: the first playout process to start terminates that
  /// request's Perfetto flow on its track, stitching client request ->
  /// server spans -> playout into one connected tree.
  void set_trace_context(const telemetry::TraceContext& ctx) {
    flow_ctx_ = ctx;
  }
  /// Total wall time this presentation spent paused inside rebuffer refills
  /// (QoE rebuffer duration).
  [[nodiscard]] Time rebuffer_wait_total() const {
    return rebuffer_wait_total_;
  }

 private:
  struct Process {
    explicit Process(sim::Simulator& sim) : tick(sim) {}

    StreamSpec spec;
    buffer::MediaBuffer* buffer = nullptr;
    ConsumeMode mode = ConsumeMode::kDeadlineDriven;
    Time interval;
    std::int64_t frame_count = 0;
    std::int64_t next_index = 0;      // k: next content slot
    std::int64_t pause_ticks = 0;     // sync controller hold
    int starved_run = 0;              // consecutive slots without fresh data
    bool active = false;
    bool done = false;
    sim::Timer tick;
    /// Trace ids cached at attach time so the per-slot path never touches a
    /// string: dense PlayoutTrace ids (group_id only with a sync group) + the
    /// telemetry track (if tracing).
    std::uint32_t trace_id = 0;
    std::uint32_t group_id = 0;
    telemetry::TrackId track = telemetry::kInvalidTraceId;
    telemetry::TrackId group_track = telemetry::kInvalidTraceId;

    [[nodiscard]] Time content_position() const {
      return spec.start + interval * next_index;
    }
  };

  [[nodiscard]] const Process* find_process(std::string_view stream_id) const;
  void start_process(Process& p);
  void tick(Process& p);
  void arm_tick(Process& p, Time when);
  void begin_rebuffer(Process& p);
  void poll_rebuffer(Process* p, Time began);
  void play_slot(Process& p, PlayoutAction action);
  void handle_overflow(Process& p);
  void enforce_sync(Process& p);
  void finish_process(Process& p);
  void check_all_finished();
  /// Arm every timed link still ahead of the scenario clock (on start, and
  /// again on resume: pause() cancels them).
  void arm_timed_links();

  sim::Simulator& sim_;
  PresentationScenario scenario_;
  PlayoutConfig config_;
  /// Interned telemetry event names, one per PlayoutAction (indexed by the
  /// action's underlying value), plus the occupancy/skew counters.
  telemetry::NameId n_action_[8] = {};
  telemetry::NameId n_buffer_ms_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_skew_ms_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_rebuffer_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_playout_start_ = telemetry::kInvalidTraceId;
  telemetry::TraceContext flow_ctx_;
  bool flow_emitted_ = false;
  Time rebuffer_wait_total_;
  /// Flat and sorted by stream id (the order the old string-keyed map
  /// iterated in, which tie-breaks simultaneous ticks and sync decisions),
  /// so per-tick group scans walk a contiguous array.
  std::vector<std::unique_ptr<Process>> processes_;
  /// One per scenario link, in scenario order (links without a time stay
  /// unarmed).
  std::vector<std::unique_ptr<sim::Timer>> link_timers_;
  sim::Timer rebuffer_poll_{sim_};
  PlayoutTrace trace_;
  Time epoch_;
  bool started_ = false;
  bool running_ = false;
  bool paused_ = false;
  bool rebuffering_ = false;
  bool finished_notified_ = false;
  Time pause_began_;
  FinishedFn on_finished_;
  TimedLinkFn on_timed_link_;
};

}  // namespace hyms::core
