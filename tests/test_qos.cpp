#include <gtest/gtest.h>

#include "net/network.hpp"
#include "server/catalog.hpp"
#include "server/qos_manager.hpp"
#include "server/stream_session.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

using server::MediaStreamSession;
using server::ServerQosManager;

/// Harness: real MediaStreamSessions on an emulated net, with fabricated
/// RTCP feedback injected straight into the manager.
class QosTest : public ::testing::Test {
 protected:
  QosTest() : sim_(31), net_(sim_) {
    server_ = net_.add_host("server");
    client_ = net_.add_host("client");
    net::LinkParams lp;
    lp.bandwidth_bps = 10e6;
    net_.connect(server_, client_, lp);
  }

  std::unique_ptr<MediaStreamSession> stream(const std::string& id,
                                             const std::string& source,
                                             int floor) {
    core::StreamSpec spec;
    spec.id = id;
    spec.source = source;
    spec.type = source.rfind("video", 0) == 0 ? media::MediaType::kVideo
                                              : media::MediaType::kAudio;
    spec.start = Time::zero();
    spec.duration = Time::sec(60);
    MediaStreamSession::Params params;
    params.floor_level = floor;
    auto obj = catalog_.resolve(source);
    EXPECT_TRUE(obj.ok());
    return MediaStreamSession::make_rtp(net_, server_, obj.value(), spec,
                                        net::Endpoint{client_, 6000}, params);
  }

  static rtp::ReceiverFeedback feedback(double fraction_lost,
                                        double buffer_ms = 500.0,
                                        std::uint32_t jitter_units = 0) {
    rtp::ReceiverFeedback fb;
    fb.block.fraction_lost =
        static_cast<std::uint8_t>(fraction_lost * 256.0);
    fb.block.interarrival_jitter = jitter_units;
    fb.app_metrics = {{"buffer_ms", buffer_ms}};
    return fb;
  }

  ServerQosManager::Config config() {
    ServerQosManager::Config c;
    c.loss_degrade = 0.04;
    c.good_reports_for_upgrade = 3;
    c.action_hold = Time::msec(500);
    return c;
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId server_, client_;
  server::MediaCatalog catalog_;
};

TEST_F(QosTest, LossTriggersDegrade) {
  auto video = stream("V", "video:mpeg:v:60", 3);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());

  manager.on_feedback(vid, feedback(0.10));
  EXPECT_EQ(video->current_level(), 1);
  EXPECT_EQ(manager.stats().degrades, 1);
  EXPECT_EQ(manager.stats().bad_reports, 1);
}

TEST_F(QosTest, HoldTimeSpacesActions) {
  auto video = stream("V", "video:mpeg:v:60", 3);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());

  manager.on_feedback(vid, feedback(0.10));
  manager.on_feedback(vid, feedback(0.10));  // within the hold window
  EXPECT_EQ(video->current_level(), 1);
  sim_.run_until(Time::sec(1));
  manager.on_feedback(vid, feedback(0.10));
  EXPECT_EQ(video->current_level(), 2);
}

TEST_F(QosTest, VideoDegradedBeforeAudio) {
  auto video = stream("V", "video:mpeg:v:60", 3);
  auto audio = stream("A", "audio:pcm:a:60", 3);
  ServerQosManager manager(sim_, config());
  manager.attach(video.get());
  const auto aid = manager.attach(audio.get());

  // Report loss on the AUDIO stream: the manager must still sacrifice video
  // first ("users can tolerate lower video quality rather than not hear
  // well").
  for (int i = 0; i < 3; ++i) {
    sim_.run_until(Time::sec(i + 1));
    manager.on_feedback(aid, feedback(0.10));
  }
  EXPECT_EQ(video->current_level(), 3);
  EXPECT_EQ(audio->current_level(), 0);

  // Video exhausted (at floor): now audio is graded.
  sim_.run_until(Time::sec(10));
  manager.on_feedback(aid, feedback(0.10));
  EXPECT_EQ(audio->current_level(), 1);
}

TEST_F(QosTest, AudioFirstOrderReversesTheSacrifice) {
  auto c = config();
  c.degrade_order = ServerQosManager::DegradeOrder::kAudioFirst;
  auto video = stream("V", "video:mpeg:v:60", 3);
  auto audio = stream("A", "audio:pcm:a:60", 3);
  ServerQosManager manager(sim_, c);
  const auto vid = manager.attach(video.get());
  manager.attach(audio.get());

  manager.on_feedback(vid, feedback(0.10));
  EXPECT_EQ(audio->current_level(), 1) << "audio-first must grade audio";
  EXPECT_EQ(video->current_level(), 0);
  EXPECT_EQ(manager.stats().degrades_audio, 1);
  EXPECT_EQ(manager.stats().degrades_video, 0);
}

TEST_F(QosTest, PerTypeDegradeCountersTrack) {
  auto video = stream("V", "video:mpeg:v:60", 1);
  auto audio = stream("A", "audio:pcm:a:60", 1);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());
  manager.attach(audio.get());
  // Video floor reached after 1 rung; the next degrade hits audio.
  manager.on_feedback(vid, feedback(0.10));
  sim_.run_until(Time::sec(1));
  manager.on_feedback(vid, feedback(0.10));
  EXPECT_EQ(manager.stats().degrades_video, 1);
  EXPECT_EQ(manager.stats().degrades_audio, 1);
  EXPECT_EQ(manager.stats().degrades, 2);
}

TEST_F(QosTest, CleanStreakUpgradesAudioFirst) {
  auto video = stream("V", "video:mpeg:v:60", 3);
  auto audio = stream("A", "audio:pcm:a:60", 3);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());
  const auto aid = manager.attach(audio.get());
  video->degrade();
  video->degrade();
  audio->degrade();

  // Three clean reports on every stream allow one upgrade: audio first.
  for (int i = 0; i < 3; ++i) {
    sim_.run_until(Time::sec(i + 1));
    manager.on_feedback(vid, feedback(0.0));
    manager.on_feedback(aid, feedback(0.0));
  }
  EXPECT_EQ(audio->current_level(), 0);
  EXPECT_EQ(video->current_level(), 2);

  // Next clean streak restores video one rung.
  for (int i = 0; i < 4; ++i) {
    sim_.run_until(Time::sec(4 + i));
    manager.on_feedback(vid, feedback(0.0));
    manager.on_feedback(aid, feedback(0.0));
  }
  EXPECT_EQ(video->current_level(), 1);
  EXPECT_GE(manager.stats().upgrades, 2);
}

TEST_F(QosTest, BadReportResetsUpgradeStreak) {
  auto video = stream("V", "video:mpeg:v:60", 3);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());
  video->degrade();
  const int before = video->current_level();

  manager.on_feedback(vid, feedback(0.0));
  manager.on_feedback(vid, feedback(0.0));
  sim_.run_until(Time::sec(2));
  manager.on_feedback(vid, feedback(0.10));  // bad: streak resets, degrade
  manager.on_feedback(vid, feedback(0.0));
  manager.on_feedback(vid, feedback(0.0));
  // Two clean reports after the reset are not enough for an upgrade.
  EXPECT_GE(video->current_level(), before);
  EXPECT_EQ(manager.stats().upgrades, 0);
}

TEST_F(QosTest, LowClientBufferTriggersDegrade) {
  auto video = stream("V", "video:mpeg:v:60", 3);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());
  manager.on_feedback(vid, feedback(0.0, /*buffer_ms=*/40.0));
  EXPECT_EQ(video->current_level(), 1);
}

TEST_F(QosTest, JitterTriggersDegrade) {
  auto video = stream("V", "video:mpeg:v:60", 3);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());
  // 90kHz clock: 100ms of jitter = 9000 units (> 80ms threshold).
  manager.on_feedback(vid, feedback(0.0, 500.0, 9000));
  EXPECT_EQ(video->current_level(), 1);
}

TEST_F(QosTest, StopAtFloorWhenConfigured) {
  auto c = config();
  c.stop_at_floor = true;
  auto video = stream("V", "video:mpeg:v:60", 1);  // short ladder to floor
  ServerQosManager manager(sim_, c);
  const auto vid = manager.attach(video.get());

  manager.on_feedback(vid, feedback(0.10));
  EXPECT_EQ(video->current_level(), 1);
  EXPECT_TRUE(video->at_floor());
  sim_.run_until(Time::sec(1));
  manager.on_feedback(vid, feedback(0.10));
  EXPECT_TRUE(video->stopped());
  EXPECT_EQ(manager.stats().stops, 1);
}

TEST_F(QosTest, NoStopAtFloorByDefault) {
  auto video = stream("V", "video:mpeg:v:60", 1);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());
  manager.on_feedback(vid, feedback(0.10));
  sim_.run_until(Time::sec(1));
  manager.on_feedback(vid, feedback(0.10));
  EXPECT_FALSE(video->stopped());
  EXPECT_EQ(manager.stats().stops, 0);
}

TEST_F(QosTest, DisabledManagerDoesNothing) {
  auto c = config();
  c.enabled = false;
  auto video = stream("V", "video:mpeg:v:60", 3);
  ServerQosManager manager(sim_, c);
  const auto vid = manager.attach(video.get());
  manager.on_feedback(vid, feedback(0.5));
  EXPECT_EQ(video->current_level(), 0);
  EXPECT_EQ(manager.stats().reports, 0);
}

TEST_F(QosTest, UnknownStreamIgnored) {
  ServerQosManager manager(sim_, config());
  manager.on_feedback(7, feedback(0.5));
  EXPECT_EQ(manager.stats().reports, 0);
}

TEST_F(QosTest, DegradeNeverPassesUserFloor) {
  auto video = stream("V", "video:mpeg:v:60", 2);
  ServerQosManager manager(sim_, config());
  const auto vid = manager.attach(video.get());
  for (int i = 0; i < 10; ++i) {
    sim_.run_until(Time::sec(i + 1));
    manager.on_feedback(vid, feedback(0.2));
  }
  EXPECT_EQ(video->current_level(), 2) << "must stop at the user's floor";
}

}  // namespace
}  // namespace hyms
