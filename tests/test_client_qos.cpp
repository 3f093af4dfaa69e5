#include <gtest/gtest.h>

#include "buffer/media_buffer.hpp"
#include "client/qos_manager.hpp"
#include "core/stream_id.hpp"
#include "net/network.hpp"
#include "rtp/session.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

using client::ClientQosManager;

class ClientQosTest : public ::testing::Test {
 protected:
  ClientQosTest() : sim_(5), net_(sim_) {
    a_ = net_.add_host("a");
    b_ = net_.add_host("b");
    net::LinkParams lp;
    net_.connect(a_, b_, lp);
  }

  buffer::BufferedFrame frame(std::int64_t index, Time duration) {
    buffer::BufferedFrame f;
    f.index = index;
    f.duration = duration;
    return f;
  }

  core::StreamRegistry reg_;
  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_, b_;
};

TEST_F(ClientQosTest, MetricsReflectBufferState) {
  buffer::MediaBuffer buffer("A", {});
  buffer.push(frame(0, Time::msec(40)));
  buffer.push(frame(1, Time::msec(40)));

  ClientQosManager manager;
  manager.attach(reg_.intern("A"), &buffer, nullptr);

  const auto metrics = manager.metrics_for(reg_.find("A"));
  ASSERT_EQ(metrics.size(), 1u);  // no receiver: buffer metric only
  EXPECT_EQ(metrics[0].first, "buffer_ms");
  EXPECT_DOUBLE_EQ(metrics[0].second, 80.0);
  EXPECT_DOUBLE_EQ(manager.min_buffer_ms(), 80.0);
}

TEST_F(ClientQosTest, MetricsFlowThroughReceiverReports) {
  rtp::RtpReceiver::Params rp;
  rp.rr_interval = Time::msec(200);
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  receiver.set_on_frame([](const rtp::ReceivedFrame&) {});
  rtp::RtpSender::Params sp;
  sp.ssrc = 9;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  receiver.set_sender_rtcp(sender.rtcp_endpoint());

  buffer::MediaBuffer buffer("S", {});
  buffer.push(frame(0, Time::msec(120)));
  ClientQosManager manager;
  manager.attach(reg_.intern("S"), &buffer, &receiver);

  std::vector<std::pair<std::string, double>> seen;
  sender.set_on_feedback([&](const rtp::ReceiverFeedback& fb) {
    seen = fb.app_metrics;
  });
  sender.send_frame(std::vector<std::uint8_t>(100, 1), Time::zero());
  sim_.run_until(Time::sec(2));

  // buffer_ms + jitter_ms + incomplete arrive at the sender.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, "buffer_ms");
  EXPECT_DOUBLE_EQ(seen[0].second, 120.0);
  EXPECT_EQ(seen[1].first, "jitter_ms");
  EXPECT_EQ(seen[2].first, "incomplete");
}

TEST_F(ClientQosTest, AggregatesAcrossStreams) {
  buffer::MediaBuffer audio("A", {});
  buffer::MediaBuffer video("V", {});
  audio.push(frame(0, Time::msec(200)));
  video.push(frame(0, Time::msec(80)));
  ClientQosManager manager;
  manager.attach(reg_.intern("A"), &audio, nullptr);
  manager.attach(reg_.intern("V"), &video, nullptr);
  EXPECT_EQ(manager.stream_count(), 2u);
  EXPECT_DOUBLE_EQ(manager.min_buffer_ms(), 80.0);
  manager.detach(reg_.find("V"));
  EXPECT_DOUBLE_EQ(manager.min_buffer_ms(), 200.0);
  EXPECT_EQ(manager.stream_count(), 1u);
}

TEST_F(ClientQosTest, UnknownStreamIsEmpty) {
  ClientQosManager manager;
  EXPECT_TRUE(manager.metrics_for(reg_.find("nope")).empty());
  manager.detach(reg_.find("nope"));  // harmless
  EXPECT_DOUBLE_EQ(manager.min_buffer_ms(), 0.0);
  EXPECT_DOUBLE_EQ(manager.worst_jitter_ms(), 0.0);
  EXPECT_EQ(manager.total_incomplete_frames(), 0);
}

}  // namespace
}  // namespace hyms
