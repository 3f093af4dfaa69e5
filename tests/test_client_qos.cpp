#include <gtest/gtest.h>

#include "buffer/media_buffer.hpp"
#include "client/presentation.hpp"
#include "net/network.hpp"
#include "rtp/session.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

using client::qos_metrics;

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

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_, b_;
};

TEST_F(ClientQosTest, MetricsReflectBufferAndReceiver) {
  buffer::MediaBuffer buffer("A", {});
  buffer.push(frame(0, Time::msec(40)));
  buffer.push(frame(1, Time::msec(40)));
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, {});

  const auto metrics = qos_metrics(buffer, receiver);
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].first, "buffer_ms");
  EXPECT_DOUBLE_EQ(metrics[0].second, 80.0);
  EXPECT_EQ(metrics[1].first, "jitter_ms");
  EXPECT_DOUBLE_EQ(metrics[1].second, 0.0);  // nothing received yet
  EXPECT_EQ(metrics[2].first, "incomplete");
  EXPECT_DOUBLE_EQ(metrics[2].second, 0.0);
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
  // Installed the way PresentationRuntime::activate does it.
  receiver.set_extra_metrics([&] { return qos_metrics(buffer, receiver); });

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

}  // namespace
}  // namespace hyms
