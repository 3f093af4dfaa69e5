#include <gtest/gtest.h>

#include "proto/messages.hpp"
#include "util/rng.hpp"

namespace hyms {
namespace {

using namespace hyms::proto;

template <typename T>
T round_trip(const T& msg) {
  const auto decoded = decode(encode(Message{msg}));
  EXPECT_TRUE(decoded.ok())
      << (decoded.ok() ? std::string() : decoded.error().message);
  return std::get<T>(decoded.value());
}

TEST(ProtoTest, ConnectRequest) {
  ConnectRequest m{"alice", "secret"};
  const auto got = round_trip(m);
  EXPECT_EQ(got.user, "alice");
  EXPECT_EQ(got.credential, "secret");
}

TEST(ProtoTest, ConnectReply) {
  const auto got = round_trip(ConnectReply{true, false, "why"});
  EXPECT_TRUE(got.ok);
  EXPECT_FALSE(got.needs_subscription);
  EXPECT_EQ(got.reason, "why");
}

TEST(ProtoTest, SubscribeRequestAllFields) {
  SubscribeRequest m;
  m.user = "bob";
  m.credential = "pw";
  m.real_name = "Bob B";
  m.address = "Street 1";
  m.telephone = "+30-1234";
  m.email = "bob@x";
  m.contract = "premium";
  m.video_floor_level = 3;
  m.audio_floor_level = 1;
  const auto got = round_trip(m);
  EXPECT_EQ(got.user, "bob");
  EXPECT_EQ(got.real_name, "Bob B");
  EXPECT_EQ(got.address, "Street 1");
  EXPECT_EQ(got.telephone, "+30-1234");
  EXPECT_EQ(got.email, "bob@x");
  EXPECT_EQ(got.contract, "premium");
  EXPECT_EQ(got.video_floor_level, 3);
  EXPECT_EQ(got.audio_floor_level, 1);
}

TEST(ProtoTest, TopicList) {
  const auto got = round_trip(TopicListReply{{"a", "b", "c"}});
  EXPECT_EQ(got.documents, (std::vector<std::string>{"a", "b", "c"}));
  round_trip(TopicListRequest{});
}

TEST(ProtoTest, DocumentRequestReply) {
  EXPECT_EQ(round_trip(DocumentRequest{"lesson-1"}).document, "lesson-1");
  const auto reply = round_trip(DocumentReply{true, "", "<TITLE> x </TITLE>"});
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.markup, "<TITLE> x </TITLE>");
}

TEST(ProtoTest, StreamSetup) {
  StreamSetup m;
  m.document = "doc";
  m.streams = {{"A1", 5004}, {"V1", 5006}, {"I1", 0}};
  m.time_window_us = 750'000;
  const auto got = round_trip(m);
  EXPECT_EQ(got.document, "doc");
  ASSERT_EQ(got.streams.size(), 3u);
  EXPECT_EQ(got.streams[0].stream_id, "A1");
  EXPECT_EQ(got.streams[0].rtp_port, 5004);
  EXPECT_EQ(got.streams[2].rtp_port, 0);
  EXPECT_EQ(got.time_window_us, 750'000);
}

TEST(ProtoTest, StreamSetupReply) {
  StreamSetupReply m;
  m.ok = true;
  StreamSetupReply::StreamInfo rtp_info;
  rtp_info.stream_id = "V1";
  rtp_info.via_rtp = true;
  rtp_info.ssrc = 0xAABBCCDD;
  rtp_info.payload_type = 96;
  rtp_info.clock_rate = 90'000;
  rtp_info.sender_rtcp_node = 3;
  rtp_info.sender_rtcp_port = 49200;
  rtp_info.frame_interval_us = 40'000;
  rtp_info.frame_count = 150;
  rtp_info.initial_level = 0;
  StreamSetupReply::StreamInfo tcp_info;
  tcp_info.stream_id = "I1";
  tcp_info.via_rtp = false;
  tcp_info.tcp_port = 50000;
  tcp_info.total_bytes = 46'080;
  tcp_info.frame_count = 1;
  m.streams = {rtp_info, tcp_info};

  const auto got = round_trip(m);
  ASSERT_EQ(got.streams.size(), 2u);
  EXPECT_TRUE(got.streams[0].via_rtp);
  EXPECT_EQ(got.streams[0].ssrc, 0xAABBCCDDu);
  EXPECT_EQ(got.streams[0].clock_rate, 90'000u);
  EXPECT_EQ(got.streams[0].sender_rtcp_port, 49200);
  EXPECT_EQ(got.streams[0].frame_count, 150);
  EXPECT_FALSE(got.streams[1].via_rtp);
  EXPECT_EQ(got.streams[1].tcp_port, 50000);
  EXPECT_EQ(got.streams[1].total_bytes, 46'080u);
}

TEST(ProtoTest, SimpleSignals) {
  round_trip(Pause{});
  round_trip(Resume{});
  round_trip(Suspend{});
  round_trip(SuspendExpired{});
  round_trip(Disconnect{});
  EXPECT_EQ(round_trip(StopStream{"V1"}).stream_id, "V1");
  EXPECT_EQ(round_trip(SuspendAck{30'000'000}).keepalive_us, 30'000'000);
}

TEST(ProtoTest, Search) {
  EXPECT_EQ(round_trip(SearchRequest{"networks"}).token, "networks");
  SearchReply reply;
  reply.hits = {{"lesson-1", "hermes-1"}, {"lesson-2", "hermes-2"}};
  const auto got = round_trip(reply);
  ASSERT_EQ(got.hits.size(), 2u);
  EXPECT_EQ(got.hits[1].document, "lesson-2");
  EXPECT_EQ(got.hits[1].server, "hermes-2");

  const auto peer = round_trip(PeerSearchRequest{"tok", 42});
  EXPECT_EQ(peer.token, "tok");
  EXPECT_EQ(peer.request_id, 42u);
  PeerSearchReply preply;
  preply.request_id = 42;
  preply.hits = {{"d", "s"}};
  EXPECT_EQ(round_trip(preply).hits.size(), 1u);
}

TEST(ProtoTest, SessionResume) {
  EXPECT_EQ(round_trip(ResumeSession{"alice"}).user, "alice");
  const auto got = round_trip(ResumeSessionReply{false, "expired"});
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.reason, "expired");
}

TEST(ProtoTest, Mail) {
  const auto sent = round_trip(MailSend{"tutor", "question", "body text",
                                        "text/plain"});
  EXPECT_EQ(sent.to, "tutor");
  EXPECT_EQ(sent.subject, "question");
  EXPECT_EQ(sent.body, "body text");
  EXPECT_EQ(sent.mime_type, "text/plain");
  EXPECT_EQ(round_trip(MailFetch{7}).index, 7);
  EXPECT_EQ(round_trip(MailList{{"s1", "s2"}}).subjects.size(), 2u);
}

TEST(ProtoTest, Directory) {
  round_trip(DirectoryListRequest{});
  DirectoryListReply reply;
  reply.servers = {{"hermes-1", "maths lessons", 3, 5000},
                   {"hermes-2", "physics lessons", 4, 5000}};
  const auto got = round_trip(reply);
  ASSERT_EQ(got.servers.size(), 2u);
  EXPECT_EQ(got.servers[0].name, "hermes-1");
  EXPECT_EQ(got.servers[1].description, "physics lessons");
  EXPECT_EQ(got.servers[1].node, 4u);
  EXPECT_EQ(got.servers[0].port, 5000);
}

TEST(ProtoTest, ErrorReply) {
  EXPECT_EQ(round_trip(ErrorReply{"boom"}).what, "boom");
}

TEST(ProtoTest, EmptyFrameRejected) {
  EXPECT_FALSE(decode(net::Payload{}).ok());
}

TEST(ProtoTest, TruncatedFrameRejected) {
  auto frame = encode(Message{ConnectRequest{"alice", "pw"}});
  frame.resize(frame.size() - 2);
  EXPECT_FALSE(decode(frame).ok());
}

TEST(ProtoTest, UnknownTypeRejected) {
  net::Payload frame{0xFF, 0, 0, 0};
  EXPECT_FALSE(decode(frame).ok());
}

TEST(ProtoTest, MessageNames) {
  EXPECT_EQ(message_name(Message{Pause{}}), "Pause");
  EXPECT_EQ(message_name(Message{SearchReply{}}), "SearchReply");
  EXPECT_EQ(message_name(Message{ErrorReply{}}), "ErrorReply");
}

TEST(ProtoTest, UnicodeAndEmptyStringsSurvive) {
  const auto got = round_trip(MailSend{"", "ümläut κείμενο", "", "x/y"});
  EXPECT_EQ(got.to, "");
  EXPECT_EQ(got.subject, "ümläut κείμενο");
  EXPECT_EQ(got.body, "");
}

// --- golden wire bytes --------------------------------------------------------------

/// The frame format pinned byte for byte: one populated instance of every
/// message (a non-default value in every field, two elements in every list,
/// negative values in the signed fields), encoded under a fixed non-zero
/// trace context. DocumentReply appears twice: not queued and queued.
struct GoldenFrame {
  int type;
  const char* name;
  Message msg;
  const char* hex;
};

std::vector<GoldenFrame> golden_frames() {
  StreamSetupReply::StreamInfo rtp_info;
  rtp_info.stream_id = "V1";
  rtp_info.via_rtp = true;
  rtp_info.ssrc = 0xA1B2C3D4;
  rtp_info.payload_type = 96;
  rtp_info.clock_rate = 8000;
  rtp_info.sender_rtcp_node = 0x01020304;
  rtp_info.sender_rtcp_port = 49200;
  rtp_info.tcp_node = 7;
  rtp_info.tcp_port = 50001;
  rtp_info.total_bytes = 0x0102030405060708ULL;
  rtp_info.frame_interval_us = -40'000;
  rtp_info.frame_count = -150;
  rtp_info.initial_level = -2;
  StreamSetupReply::StreamInfo tcp_info = rtp_info;
  tcp_info.stream_id = "I1";
  tcp_info.tcp_port = 50002;
  tcp_info.initial_level = -3;

  DocumentReply queued{true, "wait", "<T>", true, 2, -1, -7'000, 70'000};
  DocumentReply not_queued = queued;
  not_queued.queue_position = -1;

  return {
      {1, "ConnectRequest", ConnectRequest{"ann", "pw"},
       "01020304a0b0c0d00100000003616e6e000000027077"},
      {2, "ConnectReply", ConnectReply{true, true, "new"},
       "01020304a0b0c0d0020101000000036e6577"},
      {3, "SubscribeRequest",
       SubscribeRequest{"ann", "pw", "Ann A", "St 1", "+30", "a@x", "gold",
                        -3, -4},
       "01020304a0b0c0d00300000003616e6e00000002707700000005416e6e204100"
       "00000453742031000000032b33300000000361407800000004676f6c64fdfc"},
      {4, "SubscribeReply", SubscribeReply{true, "ok"},
       "01020304a0b0c0d00401000000026f6b"},
      {5, "TopicListRequest", TopicListRequest{}, "01020304a0b0c0d005"},
      {6, "TopicListReply", TopicListReply{{"d1", "d2"}},
       "01020304a0b0c0d00600000002000000026431000000026432"},
      {7, "DocumentRequest", DocumentRequest{"d1", -2, -5},
       "01020304a0b0c0d007000000026431fefb"},
      {8, "DocumentReply", not_queued,
       "01020304a0b0c0d008010000000477616974000000033c543e0102ffffffffff"
       "ffffe4a800000000"},
      {8, "DocumentReply", queued,
       "01020304a0b0c0d008010000000477616974000000033c543e0102ffffffffff"
       "ffffe4a800011171"},
      {9, "StreamSetup",
       StreamSetup{"d1", {{"A1", 5004}, {"V1", 5006}}, -250'000, -40'000},
       "01020304a0b0c0d00900000002643100000002000000024131138c0000000256"
       "31138efffffffffffc2f70ffffffffffff63c0"},
      {10, "StreamSetupReply",
       StreamSetupReply{true, "r", {rtp_info, tcp_info}},
       "01020304a0b0c0d00a0100000001720000000200000002563101a1b2c3d46000"
       "001f4001020304c03000000007c3510102030405060708ffffffffffff63c0ff"
       "ffffffffffff6afe00000002493101a1b2c3d46000001f4001020304c0300000"
       "0007c3520102030405060708ffffffffffff63c0ffffffffffffff6afd"},
      {11, "Pause", Pause{}, "01020304a0b0c0d00b"},
      {12, "Resume", Resume{}, "01020304a0b0c0d00c"},
      {13, "StopStream", StopStream{"V1"}, "01020304a0b0c0d00d000000025631"},
      {14, "SearchRequest", SearchRequest{"net"},
       "01020304a0b0c0d00e000000036e6574"},
      {15, "SearchReply", SearchReply{{{"d1", "h1"}, {"d2", "h2"}}},
       "01020304a0b0c0d00f0000000200000002643100000002683100000002643200"
       "0000026832"},
      {16, "PeerSearchRequest", PeerSearchRequest{"net", 0xCAFE},
       "01020304a0b0c0d010000000036e65740000cafe"},
      {17, "PeerSearchReply",
       PeerSearchReply{0xCAFE, {{"d1", "h1"}, {"d2", "h2"}}},
       "01020304a0b0c0d0110000cafe00000002000000026431000000026831000000"
       "026432000000026832"},
      {18, "Suspend", Suspend{}, "01020304a0b0c0d012"},
      {19, "SuspendAck", SuspendAck{-30'000'000},
       "01020304a0b0c0d013fffffffffe363c80"},
      {20, "SuspendExpired", SuspendExpired{}, "01020304a0b0c0d014"},
      {21, "ResumeSession", ResumeSession{"ann"},
       "01020304a0b0c0d01500000003616e6e"},
      {22, "ResumeSessionReply", ResumeSessionReply{true, "back"},
       "01020304a0b0c0d01601000000046261636b"},
      {23, "Disconnect", Disconnect{}, "01020304a0b0c0d017"},
      {24, "MailSend", MailSend{"tut", "q", "body", "text/plain"},
       "01020304a0b0c0d01800000003747574000000017100000004626f6479000000"
       "0a746578742f706c61696e"},
      {25, "MailFetch", MailFetch{-7}, "01020304a0b0c0d019fffffffffffffff9"},
      {26, "MailList", MailList{{"s1", "s2"}},
       "01020304a0b0c0d01a00000002000000027331000000027332"},
      {27, "Annotate", Annotate{"d1", "note"},
       "01020304a0b0c0d01b000000026431000000046e6f7465"},
      {28, "AnnotationListRequest", AnnotationListRequest{"d1"},
       "01020304a0b0c0d01c000000026431"},
      {29, "AnnotationListReply", AnnotationListReply{"d1", {"r1", "r2"}},
       "01020304a0b0c0d01d00000002643100000002000000027231000000027232"},
      {30, "DirectoryListRequest", DirectoryListRequest{},
       "01020304a0b0c0d01e"},
      {31, "DirectoryListReply",
       DirectoryListReply{
           {{"h1", "maths", 3, 5000}, {"h2", "physics", 4, 5001}}},
       "01020304a0b0c0d01f00000002000000026831000000056d6174687300000003"
       "13880000000268320000000770687973696373000000041389"},
      {32, "ErrorReply", ErrorReply{"boom"},
       "01020304a0b0c0d02000000004626f6f6d"},
  };
}

std::string to_hex(const net::Payload& bytes) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(ProtoWireTest, GoldenFrames) {
  const telemetry::TraceContext ctx{0x01020304, 0xA0B0C0D0};
  const auto frames = golden_frames();
  ASSERT_EQ(frames.size(), 33u);
  for (const auto& golden : frames) {
    SCOPED_TRACE(golden.name);
    EXPECT_EQ(message_name(golden.msg), golden.name);
    const auto frame = encode(golden.msg, ctx);
    EXPECT_EQ(to_hex(frame), golden.hex);
    ASSERT_GT(frame.size(), 8u);
    EXPECT_EQ(frame[8], golden.type);

    telemetry::TraceContext envelope;
    const auto decoded = decode(frame, &envelope);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().index(), golden.msg.index());
    EXPECT_EQ(envelope, ctx);
    EXPECT_EQ(encode(decoded.value(), envelope), frame);
  }
}

/// The queue-position word is u32(position + 1). A word above INT32_MAX
/// names no position: decoding it must fail, not overflow.
TEST(ProtoWireTest, QueuePositionWordSweep) {
  DocumentReply reply{true, "", "", false, 2, 0, 0, 0};
  const auto frame = encode(Message{reply});
  const std::size_t word_at = frame.size() - 4;
  std::vector<std::uint32_t> words = {0, 1, 0x7FFFFFFF, 0x80000000,
                                      0xFFFFFFFF};
  util::Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    words.push_back(static_cast<std::uint32_t>(rng.below(1ULL << 32)));
  }
  for (const std::uint32_t word : words) {
    auto hostile = frame;
    for (int b = 0; b < 4; ++b) {
      hostile[word_at + b] = static_cast<std::uint8_t>(word >> (24 - 8 * b));
    }
    const auto decoded = decode(hostile);
    if (word <= 0x7FFFFFFF) {
      ASSERT_TRUE(decoded.ok()) << word;
      EXPECT_EQ(std::get<DocumentReply>(decoded.value()).queue_position,
                static_cast<std::int64_t>(word) - 1);
    } else {
      EXPECT_FALSE(decoded.ok()) << word;
    }
  }
}

}  // namespace
}  // namespace hyms
