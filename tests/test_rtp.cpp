#include <gtest/gtest.h>

#include "net/loss.hpp"
#include "net/network.hpp"
#include "net/wire.hpp"
#include "rtp/packets.hpp"
#include "rtp/session.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

// --- wire format ------------------------------------------------------------------

TEST(RtpPacketTest, HeaderRoundTrip) {
  rtp::RtpPacket pkt;
  pkt.header.payload_type = 96;
  pkt.header.marker = true;
  pkt.header.sequence = 0xBEEF;
  pkt.header.timestamp = 0xDEADBEEF;
  pkt.header.ssrc = 0x12345678;
  pkt.frag_index = 2;
  pkt.frag_count = 5;
  pkt.payload = {1, 2, 3, 4, 5};

  const auto wire = rtp::serialize_rtp(pkt);
  const auto parsed = rtp::parse_rtp(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.payload_type, 96);
  EXPECT_TRUE(parsed->header.marker);
  EXPECT_EQ(parsed->header.sequence, 0xBEEF);
  EXPECT_EQ(parsed->header.timestamp, 0xDEADBEEFu);
  EXPECT_EQ(parsed->header.ssrc, 0x12345678u);
  EXPECT_EQ(parsed->frag_index, 2);
  EXPECT_EQ(parsed->frag_count, 5);
  EXPECT_EQ(parsed->payload, pkt.payload);
}

TEST(RtpPacketTest, VersionBitsCorrect) {
  rtp::RtpPacket pkt;
  const auto wire = rtp::serialize_rtp(pkt);
  EXPECT_EQ(wire[0] >> 6, 2);  // RTP version 2
}

TEST(RtpPacketTest, RejectsMalformed) {
  EXPECT_FALSE(rtp::parse_rtp(net::Payload{1, 2, 3}).has_value());
  rtp::RtpPacket pkt;
  auto wire = rtp::serialize_rtp(pkt);
  wire[0] = 0x40;  // version 1
  EXPECT_FALSE(rtp::parse_rtp(wire).has_value());
}

TEST(RtpPacketTest, RejectsBadFragmentFields) {
  rtp::RtpPacket pkt;
  pkt.frag_index = 7;
  pkt.frag_count = 3;  // index >= count
  const auto wire = rtp::serialize_rtp(pkt);
  EXPECT_FALSE(rtp::parse_rtp(wire).has_value());
}

TEST(RtcpTest, SenderReportRoundTrip) {
  rtp::RtcpCompound compound;
  rtp::SenderReport sr;
  sr.ssrc = 11;
  sr.ntp_timestamp = 0x0102030405060708ULL;
  sr.rtp_timestamp = 90'000;
  sr.packet_count = 1234;
  sr.octet_count = 567890;
  rtp::ReportBlock block;
  block.ssrc = 22;
  block.fraction_lost = 64;
  block.cumulative_lost = -5;
  block.extended_highest_seq = 0x00010002;
  block.interarrival_jitter = 333;
  block.last_sr = 444;
  block.delay_since_last_sr = 555;
  sr.reports.push_back(block);
  compound.sender_reports.push_back(sr);

  const auto parsed = rtp::parse_rtcp(rtp::serialize_rtcp(compound));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->sender_reports.size(), 1u);
  const auto& got = parsed->sender_reports[0];
  EXPECT_EQ(got.ssrc, 11u);
  EXPECT_EQ(got.ntp_timestamp, sr.ntp_timestamp);
  EXPECT_EQ(got.rtp_timestamp, 90'000u);
  EXPECT_EQ(got.packet_count, 1234u);
  EXPECT_EQ(got.octet_count, 567890u);
  ASSERT_EQ(got.reports.size(), 1u);
  EXPECT_EQ(got.reports[0].ssrc, 22u);
  EXPECT_EQ(got.reports[0].fraction_lost, 64);
  EXPECT_EQ(got.reports[0].cumulative_lost, -5);
  EXPECT_EQ(got.reports[0].extended_highest_seq, 0x00010002u);
  EXPECT_EQ(got.reports[0].interarrival_jitter, 333u);
  EXPECT_EQ(got.reports[0].last_sr, 444u);
  EXPECT_EQ(got.reports[0].delay_since_last_sr, 555u);
}

TEST(RtcpTest, ReceiverReportRoundTrip) {
  rtp::RtcpCompound compound;
  rtp::ReceiverReport rr;
  rr.ssrc = 7;
  rtp::ReportBlock block;
  block.ssrc = 9;
  block.fraction_lost = 255;
  block.cumulative_lost = 0x7FFFFF;  // max 24-bit positive
  rr.reports.push_back(block);
  compound.receiver_reports.push_back(rr);

  const auto parsed = rtp::parse_rtcp(rtp::serialize_rtcp(compound));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->receiver_reports.size(), 1u);
  EXPECT_EQ(parsed->receiver_reports[0].reports[0].cumulative_lost, 0x7FFFFF);
}

TEST(RtcpTest, ByeRoundTripWithPadding) {
  for (const std::string& reason : {"", "x", "done", "a longer reason text"}) {
    rtp::RtcpCompound compound;
    compound.byes.push_back(rtp::Bye{77, reason});
    const auto parsed = rtp::parse_rtcp(rtp::serialize_rtcp(compound));
    ASSERT_TRUE(parsed.has_value()) << reason;
    ASSERT_EQ(parsed->byes.size(), 1u);
    EXPECT_EQ(parsed->byes[0].ssrc, 77u);
    EXPECT_EQ(parsed->byes[0].reason, reason);
  }
}

TEST(RtcpTest, AppQosRoundTrip) {
  rtp::RtcpCompound compound;
  rtp::AppQos app;
  app.ssrc = 5;
  app.metrics = {{"buffer_ms", 123.5}, {"jitter_ms", 0.25}};
  compound.app_qos.push_back(app);

  const auto parsed = rtp::parse_rtcp(rtp::serialize_rtcp(compound));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->app_qos.size(), 1u);
  ASSERT_EQ(parsed->app_qos[0].metrics.size(), 2u);
  EXPECT_EQ(parsed->app_qos[0].metrics[0].first, "buffer_ms");
  EXPECT_DOUBLE_EQ(parsed->app_qos[0].metrics[0].second, 123.5);
}

TEST(RtcpTest, CompoundWithAllKinds) {
  rtp::RtcpCompound compound;
  compound.sender_reports.push_back(rtp::SenderReport{1, 2, 3, 4, 5, {}});
  rtp::ReceiverReport rr;
  rr.ssrc = 6;
  rr.reports.push_back(rtp::ReportBlock{});
  compound.receiver_reports.push_back(rr);
  compound.byes.push_back(rtp::Bye{8, "bye"});
  rtp::AppQos app;
  app.ssrc = 9;
  app.metrics = {{"m", 1.0}};
  compound.app_qos.push_back(app);

  const auto parsed = rtp::parse_rtcp(rtp::serialize_rtcp(compound));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sender_reports.size(), 1u);
  EXPECT_EQ(parsed->receiver_reports.size(), 1u);
  EXPECT_EQ(parsed->byes.size(), 1u);
  EXPECT_EQ(parsed->app_qos.size(), 1u);
}

TEST(RtcpTest, TruncatedRejected) {
  rtp::RtcpCompound compound;
  compound.sender_reports.push_back(rtp::SenderReport{1, 2, 3, 4, 5, {}});
  auto wire = rtp::serialize_rtcp(compound);
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(rtp::parse_rtcp(wire).has_value());
}

TEST(RtcpTest, ReportCountBeyondDeclaredLengthRejected) {
  // An RR whose count promises one report block but whose length covers
  // only the reporter SSRC, followed by 24 bytes that are not an RTCP
  // packet: the block must not be read out of those bytes.
  net::Payload wire;
  net::WireWriter w(wire);
  w.u8(0x81);  // V=2, count 1
  w.u8(static_cast<std::uint8_t>(rtp::RtcpType::kReceiverReport));
  w.u16(1);  // length: the SSRC word only
  w.u32(7);
  for (int i = 0; i < 24; ++i) w.u8(0);
  EXPECT_FALSE(rtp::parse_rtcp(wire).has_value());
}

// --- MediaClock ------------------------------------------------------------------

TEST(MediaClockTest, RoundTripAtCommonRates) {
  for (std::uint32_t rate : {8000u, 44100u, 90000u}) {
    const rtp::MediaClock clock{rate};
    for (std::int64_t ms : {0, 40, 80, 1000, 59'960}) {
      const Time t = Time::msec(ms);
      EXPECT_EQ(clock.to_time(clock.to_rtp(t)), t)
          << "rate " << rate << " ms " << ms;
    }
  }
}

TEST(MediaClockTest, UnitConversion) {
  const rtp::MediaClock clock{90'000};
  EXPECT_DOUBLE_EQ(clock.rtp_units_to_ms(90.0), 1.0);
}

// --- live sessions ----------------------------------------------------------------

class RtpSessionFixture : public ::testing::Test {
 protected:
  RtpSessionFixture() : sim_(123), net_(sim_) {
    a_ = net_.add_host("sender");
    b_ = net_.add_host("receiver");
  }

  void link(net::LinkParams lp) { net_.connect(a_, b_, lp); }

  net::LinkParams clean_link() {
    net::LinkParams lp;
    lp.bandwidth_bps = 20e6;
    lp.propagation = Time::msec(10);
    lp.queue_capacity_bytes = 1024 * 1024;
    return lp;
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_, b_;
};

TEST_F(RtpSessionFixture, FramesDeliveredWithFragmentation) {
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);

  std::vector<rtp::ReceivedFrame> frames;
  receiver.set_on_frame([&](rtp::ReceivedFrame&& f) {
    frames.push_back(std::move(f));
  });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  sp.max_payload = 1000;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);

  for (int k = 0; k < 10; ++k) {
    sim_.schedule_at(Time::msec(40 * k), [&, k] {
      // 2500 bytes -> 3 fragments at max_payload 1000.
      sender.send_frame(std::vector<std::uint8_t>(2500, 0x55),
                        Time::msec(40 * k));
    });
  }
  sim_.run_until(Time::sec(2));

  ASSERT_EQ(frames.size(), 10u);
  EXPECT_EQ(receiver.stats().packets_received, 30);
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(frames[static_cast<size_t>(k)].media_time, Time::msec(40 * k));
    EXPECT_EQ(frames[static_cast<size_t>(k)].payload.size(), 2500u);
  }
  EXPECT_EQ(sender.stats().frames_sent, 10);
  EXPECT_EQ(sender.stats().packets_sent, 30);
}

TEST_F(RtpSessionFixture, LostFragmentDropsOnlyThatFrame) {
  auto lp = clean_link();
  lp.loss = std::make_shared<net::BernoulliLoss>(0.10);
  link(lp);

  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rp.reassembly_timeout = Time::msec(500);
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  int frames = 0;
  receiver.set_on_frame([&](rtp::ReceivedFrame&&) { ++frames; });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  sp.max_payload = 1000;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  receiver.set_sender_rtcp(sender.rtcp_endpoint());

  const int n = 500;
  for (int k = 0; k < n; ++k) {
    sim_.schedule_at(Time::msec(20 * k), [&, k] {
      sender.send_frame(std::vector<std::uint8_t>(2500, 0x55),
                        Time::msec(20 * k));
    });
  }
  sim_.run_until(Time::sec(30));

  // P(frame survives) = (1 - 0.1)^3 ~ 0.729.
  EXPECT_NEAR(static_cast<double>(frames) / n, 0.729, 0.06);
  EXPECT_GT(receiver.stats().frames_incomplete, 0);
  EXPECT_GT(receiver.stats().packets_lost_cumulative, 0);
}

TEST_F(RtpSessionFixture, JitterEstimatorSeesLinkJitter) {
  auto lp = clean_link();
  lp.jitter_mean = Time::msec(4);
  lp.jitter_stddev = Time::msec(8);
  link(lp);

  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  receiver.set_on_frame([](rtp::ReceivedFrame&&) {});

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);

  for (int k = 0; k < 500; ++k) {
    sim_.schedule_at(Time::msec(20 * k), [&, k] {
      sender.send_frame(std::vector<std::uint8_t>(200, 1), Time::msec(20 * k));
    });
  }
  sim_.run_until(Time::sec(15));
  // The RFC estimator should report jitter in the right ballpark (several
  // ms), and essentially zero on a jitterless link.
  EXPECT_GT(receiver.stats().jitter_ms, 2.0);
  EXPECT_LT(receiver.stats().jitter_ms, 20.0);
}

TEST_F(RtpSessionFixture, JitterNearZeroOnCleanLink) {
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  receiver.set_on_frame([](rtp::ReceivedFrame&&) {});
  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  for (int k = 0; k < 200; ++k) {
    sim_.schedule_at(Time::msec(20 * k), [&, k] {
      sender.send_frame(std::vector<std::uint8_t>(200, 1), Time::msec(20 * k));
    });
  }
  sim_.run_until(Time::sec(10));
  EXPECT_LT(receiver.stats().jitter_ms, 0.5);
}

TEST_F(RtpSessionFixture, FeedbackLoopDeliversReportsAndRtt) {
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rp.rr_interval = Time::msec(200);
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  receiver.set_on_frame([](rtp::ReceivedFrame&&) {});
  receiver.set_extra_metrics([] {
    return std::vector<std::pair<std::string, double>>{{"buffer_ms", 480.0}};
  });

  rtp::RtpSender::Params sp;
  sp.ssrc = 42;
  sp.clock.clock_rate = 90'000;
  sp.sr_interval = Time::msec(200);
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  receiver.set_sender_rtcp(sender.rtcp_endpoint());

  std::vector<rtp::ReceiverFeedback> feedback;
  sender.set_on_feedback([&](const rtp::ReceiverFeedback& fb) {
    feedback.push_back(fb);
  });

  for (int k = 0; k < 200; ++k) {
    sim_.schedule_at(Time::msec(20 * k), [&, k] {
      sender.send_frame(std::vector<std::uint8_t>(500, 1), Time::msec(20 * k));
    });
  }
  sim_.run_until(Time::sec(5));

  ASSERT_GT(feedback.size(), 5u);
  const auto& last = feedback.back();
  EXPECT_EQ(last.block.ssrc, 42u);
  EXPECT_EQ(last.block.fraction_lost, 0);
  // APP metrics piggybacked on the compound packet.
  ASSERT_FALSE(last.app_metrics.empty());
  EXPECT_EQ(last.app_metrics[0].first, "buffer_ms");
  EXPECT_DOUBLE_EQ(last.app_metrics[0].second, 480.0);
  // RTT from LSR/DLSR once sender reports have flowed: path RTT is 20ms+.
  ASSERT_TRUE(last.rtt_ms.has_value());
  EXPECT_GT(*last.rtt_ms, 15.0);
  EXPECT_LT(*last.rtt_ms, 60.0);
}

TEST_F(RtpSessionFixture, FractionLostReflectsLoss) {
  auto lp = clean_link();
  lp.loss = std::make_shared<net::BernoulliLoss>(0.2);
  link(lp);

  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rp.rr_interval = Time::msec(500);
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  receiver.set_on_frame([](rtp::ReceivedFrame&&) {});

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  receiver.set_sender_rtcp(sender.rtcp_endpoint());

  util::OnlineStats fractions;
  sender.set_on_feedback([&](const rtp::ReceiverFeedback& fb) {
    fractions.add(fb.fraction_lost());
  });
  for (int k = 0; k < 2000; ++k) {
    sim_.schedule_at(Time::msec(10 * k), [&, k] {
      sender.send_frame(std::vector<std::uint8_t>(400, 1), Time::msec(10 * k));
    });
  }
  sim_.run_until(Time::sec(25));
  ASSERT_GT(fractions.count(), 10);
  EXPECT_NEAR(fractions.mean(), 0.2, 0.05);
}

TEST_F(RtpSessionFixture, ReorderedFragmentsStillAssemble) {
  auto lp = clean_link();
  lp.jitter_mean = Time::msec(2);
  lp.jitter_stddev = Time::msec(6);  // heavy reordering
  link(lp);

  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  int frames = 0;
  std::size_t total_bytes = 0;
  receiver.set_on_frame([&](rtp::ReceivedFrame&& f) {
    ++frames;
    total_bytes += f.payload.size();
  });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  sp.max_payload = 700;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);

  const int n = 100;
  for (int k = 0; k < n; ++k) {
    sim_.schedule_at(Time::msec(25 * k), [&, k] {
      sender.send_frame(std::vector<std::uint8_t>(2000, 9), Time::msec(25 * k));
    });
  }
  sim_.run_until(Time::sec(10));
  EXPECT_EQ(frames, n);
  EXPECT_EQ(total_bytes, static_cast<std::size_t>(n) * 2000u);
}

}  // namespace
}  // namespace hyms
