#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "media/frame.hpp"
#include "net/loss.hpp"
#include "net/network.hpp"
#include "net/wire.hpp"
#include "rtp/packets.hpp"
#include "rtp/session.hpp"
#include "sim/simulator.hpp"

// Every global operator new in this test binary is counted, so a test can
// assert that a code path allocates nothing. The default array and nothrow
// forms call this one. The deletes are kept out of line: inlined, GCC takes
// their free() for a mismatch with the operator new it sees at call sites.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hyms {
namespace {

// --- wire format ------------------------------------------------------------------

TEST(RtpPacketTest, HeaderRoundTrip) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
  rtp::RtpPacket pkt;
  pkt.header.payload_type = 96;
  pkt.header.marker = true;
  pkt.header.sequence = 0xBEEF;
  pkt.header.timestamp = 0xDEADBEEF;
  pkt.header.ssrc = 0x12345678;
  pkt.frag_index = 2;
  pkt.frag_count = 5;
  pkt.payload = bytes;

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
  EXPECT_TRUE(std::ranges::equal(parsed->payload, bytes));
  // The parsed payload is a view of the wire bytes, not a copy.
  EXPECT_EQ(parsed->payload.data(), wire.data() + rtp::kRtpHeaderSize + 4);
}

TEST(RtpPacketTest, VersionBitsCorrect) {
  rtp::RtpPacket pkt;
  const auto wire = rtp::serialize_rtp(pkt);
  EXPECT_EQ(wire[0] >> 6, 2);  // RTP version 2
}

TEST(RtpPacketTest, RejectsMalformed) {
  const net::Payload short_wire{1, 2, 3};
  EXPECT_FALSE(rtp::parse_rtp(short_wire).has_value());
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

TEST(RtpPacketTest, FragmentCountLimit) {
  rtp::RtpPacket pkt;
  pkt.frag_count = rtp::kMaxFragments;
  pkt.frag_index = rtp::kMaxFragments - 1;
  const auto at_limit = rtp::serialize_rtp(pkt);
  EXPECT_TRUE(rtp::parse_rtp(at_limit).has_value());
  pkt.frag_count = rtp::kMaxFragments + 1;
  const auto past_limit = rtp::serialize_rtp(pkt);
  EXPECT_FALSE(rtp::parse_rtp(past_limit).has_value());
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

  /// Send fragment `index` of a `count`-fragment frame stamped `ts`, in a
  /// wire buffer taken from the network's payload pool. Its 100 body bytes
  /// all equal `index`.
  void send_fragment(const rtp::RtpReceiver& receiver, std::uint32_t ts,
                     std::uint16_t index, std::uint16_t count) {
    const std::vector<std::uint8_t> body(100,
                                         static_cast<std::uint8_t>(index));
    rtp::RtpPacket pkt;
    pkt.header.sequence = next_seq_++;
    pkt.header.timestamp = ts;
    pkt.header.ssrc = 1;
    pkt.frag_index = index;
    pkt.frag_count = count;
    pkt.payload = body;
    auto wire = net_.payload_pool(a_).acquire();
    rtp::serialize_rtp_into(pkt, wire);
    net_.send(net::Endpoint{a_, 4000}, receiver.rtp_endpoint(),
              std::move(wire));
  }

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
  std::uint16_t next_seq_ = 0;
};

/// Frame k of a test stream: a checkable media payload whose index is k, so
/// a receiver can tell its bytes from any other frame's.
std::vector<std::uint8_t> test_frame(int k, std::size_t bytes) {
  return media::encode_frame_payload(media::hash_source_name("rtp-test"), k,
                                     0, bytes);
}

/// What a receive callback saw of one frame. The frame's fragments are
/// views that die with the callback, so the callback checks the bytes there.
struct SeenFrame {
  Time media_time;
  std::size_t fragments = 0;
  std::size_t bytes = 0;
  std::int64_t verified_index = -1;  // -1: the bytes failed the check
};

SeenFrame see(const rtp::ReceivedFrame& f) {
  const auto meta = media::verify_frame_payload(f.fragments);
  std::size_t bytes = 0;
  for (const auto fragment : f.fragments) bytes += fragment.size();
  return SeenFrame{f.media_time, f.fragments.size(), bytes,
                   meta ? meta->index : -1};
}

TEST_F(RtpSessionFixture, FramesDeliveredWithFragmentation) {
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);

  std::vector<SeenFrame> frames;
  receiver.set_on_frame(
      [&](const rtp::ReceivedFrame& f) { frames.push_back(see(f)); });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  sp.max_payload = 1000;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);

  // Even frames are 2500 bytes (3 fragments at max_payload 1000), odd ones
  // 600 bytes (one fragment).
  auto size_of = [](int k) -> std::size_t { return k % 2 == 0 ? 2500 : 600; };
  for (int k = 0; k < 10; ++k) {
    sim_.schedule_at(Time::msec(40 * k), [&, k] {
      sender.send_frame(test_frame(k, size_of(k)), Time::msec(40 * k));
    });
  }
  sim_.run_until(Time::sec(2));

  ASSERT_EQ(frames.size(), 10u);
  EXPECT_EQ(receiver.stats().packets_received, 20);
  for (int k = 0; k < 10; ++k) {
    const SeenFrame& f = frames[static_cast<size_t>(k)];
    EXPECT_EQ(f.media_time, Time::msec(40 * k));
    EXPECT_EQ(f.fragments, k % 2 == 0 ? 3u : 1u) << "frame " << k;
    EXPECT_EQ(f.bytes, size_of(k));
    EXPECT_EQ(f.verified_index, k) << "frame " << k;
  }
  EXPECT_EQ(sender.stats().frames_sent, 10);
  EXPECT_EQ(sender.stats().packets_sent, 20);
}

TEST_F(RtpSessionFixture, FrameOfMaxFragmentsAssembles) {
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  std::vector<SeenFrame> frames;
  receiver.set_on_frame(
      [&](const rtp::ReceivedFrame& f) { frames.push_back(see(f)); });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  sp.max_payload = 100;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  const std::size_t bytes = rtp::kMaxFragments * sp.max_payload;
  sender.send_frame(test_frame(7, bytes), Time::zero());
  sim_.run_until(Time::sec(1));

  EXPECT_EQ(sender.stats().packets_sent, rtp::kMaxFragments);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].fragments, rtp::kMaxFragments);
  EXPECT_EQ(frames[0].bytes, bytes);
  EXPECT_EQ(frames[0].verified_index, 7);
}

TEST_F(RtpSessionFixture, SenderRejectsFrameOverFragmentLimit) {
  link(clean_link());
  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.max_payload = 100;
  rtp::RtpSender sender(net_, a_, net::Endpoint{b_, 5000}, net::Endpoint{},
                        sp);
  const std::vector<std::uint8_t> frame(
      rtp::kMaxFragments * sp.max_payload + 1, 0x11);
  EXPECT_THROW(sender.send_frame(frame, Time::zero()), std::invalid_argument);
  EXPECT_EQ(sender.stats().frames_sent, 0);
  EXPECT_EQ(sender.stats().packets_sent, 0);
  EXPECT_EQ(net_.stats().sent, 0);
}

TEST_F(RtpSessionFixture, HostileFragmentCountsAreDropped) {
  // A fragment count past kMaxFragments never reaches reassembly, so it
  // cannot size a slot's part list (at 65535 parts a slot held 1.5 MiB).
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  int frames = 0;
  receiver.set_on_frame([&](const rtp::ReceivedFrame&) { ++frames; });

  const std::vector<std::uint8_t> body(100, 0x42);
  for (std::uint32_t i = 0; i < 20; ++i) {
    rtp::RtpPacket pkt;
    pkt.header.sequence = static_cast<std::uint16_t>(i);
    pkt.header.timestamp = 3000 * i;
    pkt.frag_count = i % 2 == 0 ? 0xFFFF : rtp::kMaxFragments + 1;
    pkt.payload = body;
    net_.send(net::Endpoint{a_, 4000}, receiver.rtp_endpoint(),
              rtp::serialize_rtp(pkt));
  }
  sim_.run_until(Time::sec(1));

  EXPECT_EQ(net_.stats().delivered, 20);
  EXPECT_EQ(receiver.stats().packets_received, 0);
  EXPECT_EQ(frames, 0);
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
  receiver.set_on_frame([&](const rtp::ReceivedFrame&) { ++frames; });

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
  receiver.set_on_frame([](const rtp::ReceivedFrame&) {});

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
  receiver.set_on_frame([](const rtp::ReceivedFrame&) {});
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
  receiver.set_on_frame([](const rtp::ReceivedFrame&) {});
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
  receiver.set_on_frame([](const rtp::ReceivedFrame&) {});

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);
  receiver.set_sender_rtcp(sender.rtcp_endpoint());

  util::Sampler fractions;
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
  std::vector<SeenFrame> frames;
  receiver.set_on_frame(
      [&](const rtp::ReceivedFrame& f) { frames.push_back(see(f)); });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  sp.max_payload = 700;
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);

  // Every fourth frame fits one fragment; the others span three.
  auto size_of = [](int k) -> std::size_t { return k % 4 == 3 ? 500 : 2000; };
  const int n = 100;
  for (int k = 0; k < n; ++k) {
    sim_.schedule_at(Time::msec(25 * k), [&, k] {
      sender.send_frame(test_frame(k, size_of(k)), Time::msec(25 * k));
    });
  }
  sim_.run_until(Time::sec(10));
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(n));
  // Frames may complete out of order; each one's bytes must be its own.
  for (const SeenFrame& f : frames) {
    const int k = static_cast<int>(f.media_time.us() / 25'000);
    EXPECT_EQ(f.verified_index, k) << "frame " << k;
    EXPECT_EQ(f.fragments, k % 4 == 3 ? 1u : 3u) << "frame " << k;
    EXPECT_EQ(f.bytes, size_of(k)) << "frame " << k;
  }
}

TEST_F(RtpSessionFixture, EvictedFrameReturnsItsBuffers) {
  // A frame that never completes holds its fragments' wire buffers until
  // reassembly_timeout evicts it; eviction gives them back to the pool.
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.rr_interval = Time::sec(3600);
  rp.reassembly_timeout = Time::msec(100);
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  int frames = 0;
  receiver.set_on_frame([&](const rtp::ReceivedFrame&) { ++frames; });
  net::PayloadPool& pool = net_.payload_pool(b_);
  for (int i = 0; i < 4; ++i) pool.release(net::Payload(64));
  const std::size_t before = pool.size();

  // Fragments 0 and 1 of a 3-fragment frame; fragment 2 never comes.
  send_fragment(receiver, 3000, 0, 3);
  send_fragment(receiver, 3000, 1, 3);
  sim_.run_until(Time::msec(50));
  EXPECT_EQ(receiver.stats().packets_received, 2);
  EXPECT_EQ(pool.size(), before - 2);  // held in the slot, not copied out

  // Past the timeout, the next arrival (a one-fragment frame) evicts it.
  sim_.schedule_at(Time::msec(200),
                   [&] { send_fragment(receiver, 6000, 0, 1); });
  sim_.run_until(Time::msec(300));
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(receiver.stats().frames_incomplete, 1);
  EXPECT_EQ(pool.size(), before);
}

TEST_F(RtpSessionFixture, DuplicateFragmentIsNotHeldTwice) {
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.rr_interval = Time::sec(3600);
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  int frames = 0;
  std::vector<std::size_t> sizes;
  std::vector<std::uint8_t> first_bytes;
  receiver.set_on_frame([&](const rtp::ReceivedFrame& f) {
    ++frames;
    for (const auto fragment : f.fragments) {
      sizes.push_back(fragment.size());
      first_bytes.push_back(fragment.front());
    }
  });
  net::PayloadPool& pool = net_.payload_pool(b_);
  for (int i = 0; i < 4; ++i) pool.release(net::Payload(64));
  const std::size_t before = pool.size();

  send_fragment(receiver, 3000, 0, 2);
  send_fragment(receiver, 3000, 0, 2);  // the same fragment again
  sim_.run_until(Time::msec(50));
  EXPECT_EQ(receiver.stats().packets_received, 2);
  // The slot holds the first copy; the network recycled the duplicate.
  EXPECT_EQ(pool.size(), before - 1);

  sim_.schedule_at(Time::msec(60), [&] { send_fragment(receiver, 3000, 1, 2); });
  sim_.run_until(Time::msec(100));
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{100, 100}));
  EXPECT_EQ(first_bytes, (std::vector<std::uint8_t>{0, 1}));
  EXPECT_EQ(pool.size(), before);
}

TEST_F(RtpSessionFixture, SteadyStateReceivePathAllocatesNothing) {
  // Sender -> clean link -> receiver, with a frame check in the callback.
  // After a warm-up that sizes every recycled buffer (and lets the retained
  // delay samplers grow past the measured window), moving 100 frames of 3
  // fragments each performs no heap allocation anywhere on the path.
  link(clean_link());
  rtp::RtpReceiver::Params rp;
  rp.clock.clock_rate = 90'000;
  rp.rr_interval = Time::sec(3600);  // no RTCP inside the run
  rtp::RtpReceiver receiver(net_, b_, 0, net::Endpoint{}, rp);
  int verified = 0;
  receiver.set_on_frame([&](const rtp::ReceivedFrame& f) {
    if (media::verify_frame_payload(f.fragments)) ++verified;
  });

  rtp::RtpSender::Params sp;
  sp.ssrc = 1;
  sp.clock.clock_rate = 90'000;
  sp.max_payload = 1000;
  sp.sr_interval = Time::sec(3600);
  rtp::RtpSender sender(net_, a_, receiver.rtp_endpoint(), net::Endpoint{}, sp);

  const int warmup = 200;
  const int measured = 100;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int k = 0; k < warmup + measured; ++k) {
    payloads.push_back(test_frame(k, 2500));  // 3 fragments
  }
  for (int k = 0; k < warmup + measured; ++k) {
    sim_.schedule_at(Time::msec(40 * k), [&, k] {
      sender.send_frame(payloads[static_cast<std::size_t>(k)],
                        Time::msec(40 * k));
    });
  }
  const Time warm_end = Time::msec(40 * warmup);
  sim_.run_until(warm_end - Time::msec(1));
  ASSERT_EQ(verified, warmup);

  const std::size_t before = g_heap_allocations.load();
  sim_.run_until(warm_end + Time::msec(40 * measured) - Time::msec(1));
  const std::size_t allocations = g_heap_allocations.load() - before;

  EXPECT_EQ(verified, warmup + measured);
  EXPECT_EQ(receiver.stats().packets_received, 3 * (warmup + measured));
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace hyms
