#include <gtest/gtest.h>

#include <set>

#include "client/browser.hpp"
#include "hermes/deployment.hpp"
#include "hermes/lesson_builder.hpp"
#include "hermes/sample_content.hpp"
#include "markup/parser.hpp"
#include "markup/validate.hpp"
#include "net/network.hpp"
#include "rtp/session.hpp"
#include "server/catalog.hpp"
#include "server/stream_session.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace hyms {
namespace {

using server::MediaStreamSession;

// --- MediaStreamSession ------------------------------------------------------------

class StreamSessionTest : public ::testing::Test {
 protected:
  StreamSessionTest() : sim_(3), net_(sim_) {
    server_ = net_.add_host("server");
    client_ = net_.add_host("client");
    net::LinkParams lp;
    lp.bandwidth_bps = 20e6;
    lp.propagation = Time::msec(5);
    net_.connect(server_, client_, lp);
  }

  core::StreamSpec video_spec(Time start, std::optional<Time> duration) {
    core::StreamSpec spec;
    spec.id = "V";
    spec.type = media::MediaType::kVideo;
    spec.source = "video:mpeg:v:4:600";
    spec.start = start;
    spec.duration = duration;
    return spec;
  }

  std::unique_ptr<MediaStreamSession> rtp_session(
      core::StreamSpec spec, rtp::RtpReceiver& receiver) {
    auto source = catalog_.resolve(spec.source);
    EXPECT_TRUE(source.ok());
    MediaStreamSession::Params params;
    params.floor_level = 3;
    return MediaStreamSession::make_rtp(net_, server_, source.value(), spec,
                                        receiver.rtp_endpoint(), params);
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId server_, client_;
  server::MediaCatalog catalog_;
};

TEST_F(StreamSessionTest, PacesAllFramesAtNominalRate) {
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, client_, 0, net::Endpoint{}, rp);
  std::vector<Time> arrivals;
  receiver.set_on_frame(
      [&](const rtp::ReceivedFrame&) { arrivals.push_back(sim_.now()); });

  auto session = rtp_session(video_spec(Time::zero(), Time::sec(4)), receiver);
  session->start_flow();
  sim_.run_until(Time::sec(10));

  EXPECT_TRUE(session->flow_complete());
  ASSERT_EQ(arrivals.size(), 100u);  // 4 s * 25 fps
  // Sending is paced at the frame interval; arrival spacing wobbles a few ms
  // because I-frames serialize longer than P-frames, but the mean is exact.
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const auto gap_ms = (arrivals[i] - arrivals[i - 1]).ms();
    EXPECT_GE(gap_ms, 25);
    EXPECT_LE(gap_ms, 55);
  }
  const double mean_ms =
      (arrivals.back() - arrivals.front()).to_ms() / 99.0;
  EXPECT_NEAR(mean_ms, 40.0, 0.5);
  EXPECT_EQ(session->stats().frames_sent, 100);
}

TEST_F(StreamSessionTest, FlowStartHonoursScenarioOffset) {
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, client_, 0, net::Endpoint{}, rp);
  Time first_arrival;
  receiver.set_on_frame([&](const rtp::ReceivedFrame&) {
    if (first_arrival == Time::zero()) first_arrival = sim_.now();
  });
  auto session = rtp_session(video_spec(Time::sec(3), Time::sec(1)), receiver);
  session->start_flow();
  sim_.run_until(Time::sec(10));
  EXPECT_GE(first_arrival, Time::sec(3));
  EXPECT_LT(first_arrival, Time::seconds(3.1));
}

TEST_F(StreamSessionTest, PauseStopsPacingResumeContinues) {
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, client_, 0, net::Endpoint{}, rp);
  int frames = 0;
  receiver.set_on_frame([&](const rtp::ReceivedFrame&) { ++frames; });
  auto session = rtp_session(video_spec(Time::zero(), Time::sec(4)), receiver);
  session->start_flow();
  sim_.run_until(Time::sec(1));
  session->pause();
  EXPECT_TRUE(session->paused());
  const int at_pause = frames;
  sim_.run_until(Time::sec(3));
  // At most one in-flight frame lands after the pause takes effect.
  EXPECT_LE(frames, at_pause + 1);
  session->resume();
  sim_.run_until(Time::sec(10));
  EXPECT_EQ(frames, 100);
  EXPECT_TRUE(session->flow_complete());
}

TEST_F(StreamSessionTest, StopHaltsForGood) {
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, client_, 0, net::Endpoint{}, rp);
  int frames = 0;
  receiver.set_on_frame([&](const rtp::ReceivedFrame&) { ++frames; });
  auto session = rtp_session(video_spec(Time::zero(), Time::sec(4)), receiver);
  session->start_flow();
  sim_.run_until(Time::sec(1));
  session->stop();
  EXPECT_TRUE(session->stopped());
  sim_.run_until(Time::sec(5));
  EXPECT_LT(frames, 30);
  session->resume();  // must not restart a stopped flow
  sim_.run_until(Time::sec(8));
  EXPECT_LT(frames, 30);
}

TEST_F(StreamSessionTest, InfoDescribesRtpFlow) {
  rtp::RtpReceiver::Params rp;
  rtp::RtpReceiver receiver(net_, client_, 0, net::Endpoint{}, rp);
  auto session = rtp_session(video_spec(Time::zero(), Time::sec(2)), receiver);
  const auto info = session->info();
  EXPECT_TRUE(info.via_rtp);
  EXPECT_EQ(info.stream_id, "V");
  EXPECT_EQ(info.frame_interval_us, 40'000);
  EXPECT_EQ(info.frame_count, 50);
  EXPECT_EQ(info.clock_rate, 90'000u);
  EXPECT_NE(info.ssrc, 0u);
  EXPECT_EQ(info.payload_type, 96);
}

TEST_F(StreamSessionTest, DurationBeyondSourceLoops) {
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, client_, 0, net::Endpoint{}, rp);
  std::vector<std::int64_t> indices;
  receiver.set_on_frame([&](const rtp::ReceivedFrame& f) {
    indices.push_back(f.media_time.us() / 40'000);
  });
  // Source is 4 s; scenario schedules 10 s -> 250 frames, looping content.
  auto session = rtp_session(video_spec(Time::zero(), Time::sec(10)), receiver);
  EXPECT_EQ(session->info().frame_count, 250);
  session->start_flow();
  sim_.run_until(Time::sec(15));
  ASSERT_EQ(indices.size(), 250u);
  // Media times keep advancing monotonically across the loop boundary.
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], static_cast<std::int64_t>(i));
  }
}

TEST_F(StreamSessionTest, ObjectSessionServesOverTcp) {
  core::StreamSpec spec;
  spec.id = "I";
  spec.type = media::MediaType::kImage;
  spec.source = "image:jpeg:pic";
  spec.start = Time::zero();
  auto source = catalog_.resolve(spec.source);
  ASSERT_TRUE(source.ok());
  MediaStreamSession::Params params;
  auto session = MediaStreamSession::make_object(net_, server_, source.value(),
                                                 spec, params);
  const auto info = session->info();
  EXPECT_FALSE(info.via_rtp);
  EXPECT_GT(info.tcp_port, 0);
  EXPECT_GT(info.total_bytes, 0u);

  // Pull the object like the client does.
  std::vector<std::uint8_t> received;
  auto conn = net::StreamConnection::connect(
      net_, client_, net::Endpoint{server_, info.tcp_port});
  conn->set_on_data([&](std::span<const std::uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  sim_.run_until(Time::sec(5));
  EXPECT_EQ(received.size(), 8 + info.total_bytes);  // length prefix + object
  EXPECT_EQ(session->stats().objects_served, 1);
  EXPECT_TRUE(session->flow_complete());
}

// --- LessonBuilder -------------------------------------------------------------------

TEST(LessonBuilderTest, BuildsValidDocuments) {
  hermes::LessonBuilder builder("My lesson");
  builder.heading(1, "Intro")
      .text("plain", false, false)
      .text("bold", true, false)
      .paragraph()
      .image("I", "image:jpeg:x", Time::zero(), Time::sec(2), 100, 80)
      .audio("A", "audio:pcm:a:5", Time::sec(1), Time::sec(5))
      .video("V", "video:mpeg:v:5", Time::sec(1), Time::sec(5))
      .separator()
      .av_pair("PA", "audio:pcm:p:3", "PV", "video:avi:p:3", Time::sec(7),
               Time::sec(3))
      .link("next", "other-host", Time::sec(10), "note");
  const auto& doc = builder.document();
  EXPECT_EQ(doc.title, "My lesson");
  EXPECT_TRUE(markup::validate(doc).ok());
  // The emitted markup re-parses to the same document.
  auto reparsed = markup::parse(builder.markup_text());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(reparsed.value(), doc);
}

TEST(LessonBuilderTest, SeparatorStartsNewSection) {
  hermes::LessonBuilder builder("s");
  builder.text("a").separator().text("b");
  EXPECT_EQ(builder.document().sections.size(), 2u);
}

// --- sample content -----------------------------------------------------------------

TEST(SampleContentTest, AllSamplesValidate) {
  for (const std::string& text :
       {hermes::fig2_lesson_markup(), hermes::intro_lesson_markup(),
        hermes::sequenced_lesson_markup("u1", "u2", "hermes-2", 8.0)}) {
    auto doc = markup::parse(text);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_TRUE(markup::validate(doc.value()).ok());
  }
}

TEST(SampleContentTest, CatalogueIsWellFormed) {
  const auto catalogue = hermes::lesson_catalogue(16);
  ASSERT_EQ(catalogue.size(), 16u);
  std::set<std::string> names;
  for (const auto& entry : catalogue) {
    EXPECT_TRUE(names.insert(entry.name).second) << "duplicate " << entry.name;
    auto doc = markup::parse(entry.markup);
    ASSERT_TRUE(doc.ok()) << entry.name << ": " << doc.error().message;
    EXPECT_TRUE(markup::validate(doc.value()).ok()) << entry.name;
    EXPECT_NE(entry.name.find(entry.topic), std::string::npos);
  }
}

TEST(SampleContentTest, StudentFormFields) {
  const auto form = hermes::student_form("zoe", "premium");
  EXPECT_EQ(form.user, "zoe");
  EXPECT_EQ(form.credential, "secret-zoe");
  EXPECT_EQ(form.contract, "premium");
  EXPECT_FALSE(form.email.empty());
  EXPECT_FALSE(form.address.empty());
}

// --- deployment ---------------------------------------------------------------------

TEST(DeploymentTest, TopologyIsFullyRouted) {
  sim::Simulator sim(1);
  hermes::Deployment::Config config;
  config.server_count = 3;
  config.client_count = 2;
  hermes::Deployment deployment(sim, config);
  EXPECT_EQ(deployment.server_count(), 3);
  // 1 router + 3 server hosts + 2 client hosts.
  EXPECT_EQ(deployment.network().node_count(), 6u);
  EXPECT_NE(deployment.client_downlink(0), nullptr);
  EXPECT_NE(deployment.client_downlink(1), nullptr);
  // Server names and control ports are distinct and reachable.
  EXPECT_EQ(deployment.server(0).name(), "hermes-1");
  EXPECT_EQ(deployment.server(2).name(), "hermes-3");
  EXPECT_NE(deployment.server(0).control_endpoint().node,
            deployment.server(1).control_endpoint().node);
}

TEST(DeploymentTest, ServersArePeeredForSearch) {
  sim::Simulator sim(2);
  hermes::Deployment::Config config;
  config.server_count = 2;
  hermes::Deployment deployment(sim, config);
  deployment.server(1).documents().add("only-here",
                                       hermes::fig2_lesson_markup());
  // A peer query from server 0 must reach server 1 (tested end-to-end in
  // test_service; here just verify the wiring exists via the directory).
  client::Browser::Config bc;
  client::Browser browser(deployment.network(), deployment.client_node(0), bc);
  deployment.fill_directory(browser);
  EXPECT_EQ(browser.known_servers().size(), 2u);
}

// --- log sink ----------------------------------------------------------------------

TEST(LogTest, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> captured;
  util::Log::set_level(util::LogLevel::kInfo);
  util::Log::set_sink([&](util::LogLevel, const std::string& msg) {
    captured.push_back(msg);
  });
  LOG_DEBUG << "hidden";
  LOG_INFO << "shown " << 42;
  LOG_ERROR << "also shown";
  util::Log::set_sink({});
  util::Log::set_level(util::LogLevel::kWarn);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "shown 42");
  EXPECT_EQ(captured[1], "also shown");
}

}  // namespace
}  // namespace hyms
