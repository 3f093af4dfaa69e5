#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "buffer/media_buffer.hpp"
#include "core/playout.hpp"
#include "core/scenario.hpp"
#include "hermes/lesson_builder.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

using buffer::BufferedFrame;
using buffer::MediaBuffer;
using core::PlayoutAction;
using core::PlayoutConfig;
using core::PlayoutScheduler;

constexpr Time kInterval = Time::msec(40);

BufferedFrame make_frame(std::int64_t index) {
  BufferedFrame f;
  f.index = index;
  f.media_time = kInterval * index;
  f.duration = kInterval;
  return f;
}

MediaBuffer::Config buffer_config() {
  MediaBuffer::Config config;
  config.time_window = Time::msec(500);
  return config;
}

/// Scenario with one audio stream [0, 4s).
core::PresentationScenario audio_only() {
  hermes::LessonBuilder builder("audio");
  builder.audio("A", "audio:pcm:a", Time::zero(), Time::sec(4));
  return core::extract_scenario(builder.document()).value();
}

/// Scenario with a synchronized audio+video pair [0, 4s).
core::PresentationScenario av_pair() {
  hermes::LessonBuilder builder("av");
  builder.av_pair("A", "audio:pcm:a", "V", "video:mpeg:v", Time::zero(),
                  Time::sec(4));
  return core::extract_scenario(builder.document()).value();
}

TEST(PlayoutTest, IdealPrefilledPlayoutIsAllFresh) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 100; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  PlayoutScheduler scheduler(sim, audio_only(), config);
  scheduler.attach_stream("A", &buf, kInterval, 100);

  bool finished = false;
  scheduler.set_on_finished([&] { finished = true; });
  scheduler.start();
  sim.run_until(Time::sec(10));

  EXPECT_TRUE(finished);
  EXPECT_TRUE(scheduler.finished());
  const auto& stats = scheduler.trace().stream("A");
  EXPECT_EQ(stats.fresh, 100);
  EXPECT_EQ(stats.duplicates, 0);
  EXPECT_EQ(stats.gap_skips, 0);
  // First play happens exactly at epoch (initial delay honoured).
  EXPECT_EQ(stats.first_play, Time::msec(100));
  EXPECT_EQ(stats.last_play, Time::msec(100) + kInterval * 99);
}

TEST(PlayoutTest, StreamStartOffsetHonoured) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("offset");
  builder.audio("A", "audio:pcm:a", Time::sec(2), Time::sec(1));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 25; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(500);
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("A", &buf, kInterval, 25);
  scheduler.start();
  sim.run_until(Time::sec(10));
  // First tick at initial_delay + STARTIME.
  EXPECT_EQ(scheduler.trace().stream("A").first_play, Time::msec(2500));
}

TEST(PlayoutTest, StarvedContinuityStreamDuplicatesWithoutAdvancing) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  // Only the first 10 frames are ever available.
  for (std::int64_t k = 0; k < 10; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  config.sync.enabled = false;
  PlayoutScheduler scheduler(sim, audio_only(), config);
  scheduler.attach_stream("A", &buf, kInterval, 100);
  scheduler.start();
  sim.run_until(Time::sec(3));

  const auto& stats = scheduler.trace().stream("A");
  EXPECT_EQ(stats.fresh, 10);
  EXPECT_GT(stats.duplicates, 30);  // filler while starved
  EXPECT_FALSE(scheduler.finished());
  // Content position froze at frame 10.
  EXPECT_EQ(scheduler.content_position("A"), kInterval * 10);

  // Late data arrives: playout resumes from where content stopped.
  for (std::int64_t k = 10; k < 100; ++k) buf.push(make_frame(k));
  sim.run_until(Time::sec(10));
  EXPECT_EQ(scheduler.trace().stream("A").fresh, 100);
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, DeadlineDrivenVideoFreezesButStaysOnClock) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("video");
  builder.video("V", "video:mpeg:v", Time::zero(), Time::sec(4));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer buf("V", buffer_config());
  for (std::int64_t k = 0; k < 10; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("V", &buf, kInterval, 100);
  scheduler.start();
  sim.run_until(Time::sec(10));

  // Deadline-driven: all 100 slots consumed even though 90 frames missing.
  const auto& stats = scheduler.trace().stream("V");
  EXPECT_EQ(stats.fresh, 10);
  EXPECT_EQ(stats.duplicates, 90);
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, MissingFrameWithLaterDataIsGapSkip) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("video");
  builder.video("V", "video:mpeg:v", Time::zero(), Time::sec(4));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer buf("V", buffer_config());
  for (std::int64_t k = 0; k < 100; ++k) {
    if (k % 10 == 5) continue;  // every 10th-ish frame lost
    buf.push(make_frame(k));
  }
  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // keep the full prefill
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("V", &buf, kInterval, 100);
  scheduler.start();
  sim.run_until(Time::sec(10));

  const auto& stats = scheduler.trace().stream("V");
  EXPECT_EQ(stats.fresh, 90);
  EXPECT_EQ(stats.gap_skips, 10);
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, LateFramesDiscarded) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("video");
  builder.video("V", "video:mpeg:v", Time::zero(), Time::sec(4));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer buf("V", buffer_config());
  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("V", &buf, kInterval, 100);
  scheduler.start();

  // Frame 0 arrives 2s late: by then the clock is at slot ~47.
  sim.schedule_at(Time::sec(2), [&] { buf.push(make_frame(0)); });
  sim.run_until(Time::sec(10));
  EXPECT_GT(scheduler.trace().stream("V").late_discards, 0);
  EXPECT_EQ(scheduler.trace().stream("V").fresh, 0);
}

TEST(PlayoutTest, OverflowDropsWhenAboveHighWatermark) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("video");
  builder.video("V", "video:mpeg:v", Time::zero(), Time::sec(40));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer::Config bc;
  bc.time_window = Time::msec(200);  // 5 frames
  bc.high_watermark = 2.0;           // overflow above 10 frames
  MediaBuffer buf("V", bc);
  for (std::int64_t k = 0; k < 1000; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("V", &buf, kInterval, 1000);
  scheduler.start();
  sim.run_until(Time::msec(200));

  EXPECT_GT(scheduler.trace().stream("V").overflow_drops, 900);
  // Occupancy pulled back to the time window.
  EXPECT_LE(buf.occupancy_time(), Time::msec(240));
}

TEST(PlayoutTest, SkewControlBoundsSkewWhenAudioStarves) {
  auto run = [](bool sync_enabled) {
    sim::Simulator sim;
    MediaBuffer audio("A", buffer_config());
    MediaBuffer video("V", buffer_config());
    // Video fully available; audio missing a 1.2s chunk in the middle and
    // its data arrives late, so the audio process stalls (lags).
    for (std::int64_t k = 0; k < 100; ++k) video.push(make_frame(k));
    for (std::int64_t k = 0; k < 20; ++k) audio.push(make_frame(k));

    PlayoutConfig config;
    config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
    config.sync.enabled = sync_enabled;
    config.sync.max_skew = Time::msec(80);
    config.sync.target_skew = Time::msec(20);
    PlayoutScheduler scheduler(sim, av_pair(), config);
    scheduler.attach_stream("A", &audio, kInterval, 100);
    scheduler.attach_stream("V", &video, kInterval, 100);
    scheduler.start();

    // Audio frames 50.. arrive at 2.5s (frames 20-49 lost forever).
    sim.schedule_at(Time::msec(2500), [&] {
      for (std::int64_t k = 50; k < 100; ++k) audio.push(make_frame(k));
    });
    sim.run_until(Time::sec(20));
    return scheduler.trace().max_abs_skew_ms();
  };

  const double with_sync = run(true);
  const double without_sync = run(false);
  EXPECT_GT(without_sync, 800.0) << "audio should lag far behind";
  EXPECT_LT(with_sync, 250.0) << "skew controller must bound the skew";
}

TEST(PlayoutTest, SyncSkipJumpsLaggingStreamForward) {
  sim::Simulator sim;
  MediaBuffer audio("A", buffer_config());
  MediaBuffer video("V", buffer_config());
  for (std::int64_t k = 0; k < 100; ++k) video.push(make_frame(k));
  // Audio has data but it arrives 1s late, creating lag with content queued.
  sim.schedule_at(Time::sec(1), [&] {
    for (std::int64_t k = 0; k < 100; ++k) audio.push(make_frame(k));
  });

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  PlayoutScheduler scheduler(sim, av_pair(), config);
  scheduler.attach_stream("A", &audio, kInterval, 100);
  scheduler.attach_stream("V", &video, kInterval, 100);
  scheduler.start();
  sim.run_until(Time::sec(20));

  EXPECT_GT(scheduler.trace().stream("A").sync_skips, 0);
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, LeaderPausesWhenLaggardCannotSkip) {
  sim::Simulator sim;
  MediaBuffer audio("A", buffer_config());
  MediaBuffer video("V", buffer_config());
  for (std::int64_t k = 0; k < 100; ++k) video.push(make_frame(k));
  // Audio empty for 1s: the laggard has nothing to skip through, so the
  // leader (video) must hold.
  sim.schedule_at(Time::sec(1), [&] {
    for (std::int64_t k = 0; k < 100; ++k) audio.push(make_frame(k));
  });

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  config.sync.allow_skip = false;  // force the pause path
  PlayoutScheduler scheduler(sim, av_pair(), config);
  scheduler.attach_stream("A", &audio, kInterval, 100);
  scheduler.attach_stream("V", &video, kInterval, 100);
  scheduler.start();
  sim.run_until(Time::sec(30));

  EXPECT_GT(scheduler.trace().stream("V").sync_pauses, 0);
}

TEST(PlayoutTest, PauseFreezesAndResumeShiftsEpoch) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 100; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  PlayoutScheduler scheduler(sim, audio_only(), config);
  scheduler.attach_stream("A", &buf, kInterval, 100);
  scheduler.start();

  sim.run_until(Time::sec(1));
  scheduler.pause();
  const auto fresh_at_pause = scheduler.trace().stream("A").fresh;
  const Time epoch_before = scheduler.presentation_epoch();
  sim.run_until(Time::sec(3));
  EXPECT_EQ(scheduler.trace().stream("A").fresh, fresh_at_pause);

  scheduler.resume();
  EXPECT_EQ(scheduler.presentation_epoch(), epoch_before + Time::sec(2));
  sim.run_until(Time::sec(10));
  EXPECT_EQ(scheduler.trace().stream("A").fresh, 100);
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, TimedLinkFiresAtScenarioTime) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("linked");
  builder.audio("A", "audio:pcm:a", Time::zero(), Time::sec(4));
  builder.link("next-doc", "", Time::sec(2));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 100; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("A", &buf, kInterval, 100);

  Time fired;
  std::string target;
  scheduler.set_on_timed_link([&](const core::LinkSpec& link) {
    fired = sim.now();
    target = link.target_document;
  });
  scheduler.start();
  sim.run_until(Time::sec(10));
  EXPECT_EQ(target, "next-doc");
  EXPECT_EQ(fired, Time::msec(100) + Time::sec(2));
}

TEST(PlayoutTest, TimedLinkSuppressedWhilePaused) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("linked");
  builder.audio("A", "audio:pcm:a", Time::zero(), Time::sec(4));
  builder.link("next-doc", "", Time::sec(2));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 100; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("A", &buf, kInterval, 100);
  Time fired = Time::zero();
  scheduler.set_on_timed_link([&](const core::LinkSpec&) { fired = sim.now(); });
  scheduler.start();
  sim.run_until(Time::sec(1));
  scheduler.pause();
  sim.run_until(Time::sec(5));
  EXPECT_EQ(fired, Time::zero()) << "link must not fire while paused";
  scheduler.resume();
  sim.run_until(Time::sec(10));
  // Scenario clock stood still for 4s: link fires at 0.1 + 2 + 4.
  EXPECT_EQ(fired, Time::seconds(6.1));
}

TEST(PlayoutTest, OneShotImagePlaysWhenAvailable) {
  sim::Simulator sim;
  hermes::LessonBuilder builder("img");
  builder.image("I", "image:jpeg:x", Time::sec(1), Time::sec(2));
  auto scenario = core::extract_scenario(builder.document()).value();

  MediaBuffer buf("I", buffer_config());
  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  PlayoutScheduler scheduler(sim, scenario, config);
  scheduler.attach_stream("I", &buf, Time::zero(), 1);
  scheduler.start();

  // Image object arrives late (1.5s after its 1.1s deadline).
  sim.schedule_at(Time::seconds(2.6), [&] {
    BufferedFrame f;
    f.index = 0;
    f.duration = Time::sec(2);
    buf.push(std::move(f));
  });
  sim.run_until(Time::sec(10));
  const auto& stats = scheduler.trace().stream("I");
  EXPECT_EQ(stats.fresh, 1);
  // Played at the first poll after arrival, not before.
  EXPECT_GE(stats.first_play, Time::seconds(2.6));
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, RebufferingPausesUntilRefilled) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 10; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;
  config.rebuffer.enabled = true;
  config.rebuffer.starvation_ticks = 5;
  config.rebuffer.target = Time::msec(200);
  PlayoutScheduler scheduler(sim, audio_only(), config);
  scheduler.attach_stream("A", &buf, kInterval, 100);
  scheduler.start();

  // Data dries up after frame 10; more arrives steadily from t=2s.
  std::int64_t next = 10;
  sim::Timer feeder(sim);
  std::function<void()> feed = [&] {
    if (sim.now() >= Time::sec(2) && next < 100) buf.push(make_frame(next++));
    feeder.arm_after(kInterval, [&] { feed(); });
  };
  feeder.arm_after(kInterval, [&] { feed(); });
  sim.run_until(Time::sec(20));

  const auto& stats = scheduler.trace().stream("A");
  EXPECT_GE(stats.rebuffers, 1);
  // Starvation was capped at starvation_ticks per rebuffer event instead of
  // playing filler for the whole dry spell (~1.5 s = ~37 slots).
  EXPECT_LT(stats.duplicates, 20);
  EXPECT_EQ(stats.fresh, 100);
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, RebufferingTimesOutIfDataNeverComes) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 10; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;
  config.rebuffer.enabled = true;
  config.rebuffer.starvation_ticks = 5;
  config.rebuffer.max_wait = Time::msec(500);
  config.starvation_advance_after = 40;  // give up after ~1.6 s of filler
  PlayoutScheduler scheduler(sim, audio_only(), config);
  scheduler.attach_stream("A", &buf, kInterval, 100);
  scheduler.start();
  sim.run_until(Time::sec(30));

  // Repeated rebuffer attempts, each bounded by max_wait; eventually the
  // liveness rule consumes the remaining slots as gaps — the presentation
  // never deadlocks AND eventually ends.
  EXPECT_GE(scheduler.trace().stream("A").rebuffers, 2);
  EXPECT_GT(scheduler.trace().stream("A").duplicates, 0);
  EXPECT_GT(scheduler.trace().stream("A").gap_skips, 0);
  EXPECT_TRUE(scheduler.finished());
}

TEST(PlayoutTest, RebufferingDisabledByDefault) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 10; ++k) buf.push(make_frame(k));
  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;
  PlayoutScheduler scheduler(sim, audio_only(), config);
  scheduler.attach_stream("A", &buf, kInterval, 100);
  scheduler.start();
  sim.run_until(Time::sec(5));
  EXPECT_EQ(scheduler.trace().stream("A").rebuffers, 0);
  EXPECT_GT(scheduler.trace().stream("A").duplicates, 50);
}

TEST(PlayoutTest, TeardownMidRebufferLeavesNoPendingEvent) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 10; ++k) buf.push(make_frame(k));

  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.rebuffer.enabled = true;
  config.rebuffer.starvation_ticks = 5;
  auto scheduler =
      std::make_unique<PlayoutScheduler>(sim, audio_only(), config);
  scheduler->attach_stream("A", &buf, kInterval, 100);
  scheduler->start();
  // The 10 frames play out by ~0.5 s, five starved slots later the stream
  // rebuffers, and at 0.8 s it is still polling for a refill.
  sim.run_until(Time::msec(800));
  ASSERT_EQ(scheduler->trace().stream("A").rebuffers, 1);

  // A presentation torn down mid-rebuffer (disconnect, outage recovery,
  // navigation) takes its rebuffer poll with it.
  scheduler.reset();
  EXPECT_EQ(sim.queued(), 0u);
  sim.run_until(Time::sec(5));  // a leaked poll would fire into freed memory
}

TEST(PlayoutTest, EventRecordingCapturesActions) {
  sim::Simulator sim;
  MediaBuffer buf("A", buffer_config());
  for (std::int64_t k = 0; k < 10; ++k) buf.push(make_frame(k));
  PlayoutConfig config;
  config.initial_delay = Time::msec(100);
  config.drop_on_overflow = false;  // buffers are artificially prefilled
  config.record_events = true;
  PlayoutScheduler scheduler(sim, audio_only(), config);
  scheduler.attach_stream("A", &buf, kInterval, 10);
  scheduler.start();
  sim.run_until(Time::sec(5));
  const auto& events = scheduler.trace().events();
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].action, PlayoutAction::kFresh);
    EXPECT_EQ(events[k].frame_index, static_cast<std::int64_t>(k));
  }
}

TEST(PlayoutTest, EventsCsvExport) {
  core::PlayoutTrace trace;
  trace.set_record_events(true);
  trace.note({"A", PlayoutAction::kFresh, 3, Time::msec(100), Time::msec(120)});
  trace.note({"V", PlayoutAction::kGapSkip, 4, Time::msec(140), Time::msec(160)});
  const std::string csv = trace.events_csv();
  EXPECT_EQ(csv,
            "stream,action,frame,at_us,pos_us\n"
            "A,fresh,3,100000,120000\n"
            "V,gap-skip,4,140000,160000\n");
}

TEST(PlayoutTest, EventsCsvEmptyWithoutRecording) {
  core::PlayoutTrace trace;
  trace.note({"A", PlayoutAction::kFresh, 0, Time::zero(), Time::zero()});
  EXPECT_EQ(trace.events_csv(), "stream,action,frame,at_us,pos_us\n");
}

TEST(PlayoutTest, TraceTotalsAggregate) {
  core::PlayoutTrace trace;
  trace.note({"a", PlayoutAction::kFresh, 0, Time::zero(), Time::zero()});
  trace.note({"b", PlayoutAction::kDuplicate, 0, Time::zero(), Time::zero()});
  trace.note({"b", PlayoutAction::kSyncSkip, 1, Time::zero(), Time::zero()});
  const auto totals = trace.totals();
  EXPECT_EQ(totals.fresh, 1);
  EXPECT_EQ(totals.duplicates, 1);
  EXPECT_EQ(totals.sync_skips, 1);
  EXPECT_DOUBLE_EQ(trace.stream("a").fresh_ratio(), 1.0);
}

}  // namespace
}  // namespace hyms
