#include "proto/messages.hpp"

#include <array>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "net/wire.hpp"

namespace hyms::proto {

using net::WireReader;
using net::WireWriter;

namespace {

/// Wire codec for a field's C++ type: `put`, `get`, and `kMinBytes`, the
/// fewest bytes one value takes on the wire. Records (messages and list
/// elements) use the primary template below, which walks their field list.
template <typename T>
struct Wire;

/// Integers travel big-endian at their own width, bools as one byte.
/// `int` names no width, so an `int` field needs an adaptor.
template <typename T>
  requires std::is_integral_v<T>
struct Wire<T> {
  static_assert(!std::is_same_v<T, int>, "an int field needs an adaptor");
  static constexpr std::size_t kMinBytes = sizeof(T);
  static void put(WireWriter& w, T v) {
    const auto bits = static_cast<std::uint64_t>(v);
    for (std::size_t i = sizeof(T); i-- > 0;) {
      w.u8(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  static void get(WireReader& r, T& v) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) bits = (bits << 8) | r.u8();
    v = static_cast<T>(bits);
  }
};

template <>
struct Wire<std::string> {
  static constexpr std::size_t kMinBytes = 4;  // the length word
  static void put(WireWriter& w, const std::string& v) { w.str(v); }
  static void get(WireReader& r, std::string& v) { v = r.str(); }
};

/// A list is a u32 count, then its elements.
template <typename T>
struct Wire<std::vector<T>> {
  static constexpr std::size_t kMinBytes = 4;
  static void put(WireWriter& w, const std::vector<T>& list) {
    w.u32(static_cast<std::uint32_t>(list.size()));
    for (const auto& element : list) Wire<T>::put(w, element);
  }
  static void get(WireReader& r, std::vector<T>& list) {
    // Validate the wire-supplied count against the bytes actually left in
    // the frame (each element needs at least its minimum size); a hostile
    // or corrupted count must fail the parse, not drive a giant allocation.
    const std::uint32_t n = r.u32();
    if (static_cast<std::size_t>(n) * Wire<T>::kMinBytes > r.remaining()) {
      throw std::out_of_range("element count exceeds frame size");
    }
    list.resize(n);
    for (auto& element : list) Wire<T>::get(r, element);
  }
};

// --- Adaptors: fields whose wire type differs from their C++ type -----------

/// An `int` quality level travels as one byte.
struct LevelByte {
  static constexpr std::size_t kMinBytes = 1;
  static void put(WireWriter& w, int v) { w.u8(static_cast<std::uint8_t>(v)); }
  static void get(WireReader& r, int& v) { v = r.u8(); }
};

/// DocumentReply::queue_position (-1 when not queued) travels as
/// u32(position + 1). A word above INT32_MAX names no position and fails
/// the parse.
struct QueuePosition {
  static constexpr std::size_t kMinBytes = 4;
  static void put(WireWriter& w, std::int32_t v) {
    w.u32(static_cast<std::uint32_t>(v) + 1);
  }
  static void get(WireReader& r, std::int32_t& v) {
    const std::uint32_t word = r.u32();
    if (word > 0x7FFFFFFF) {
      throw std::range_error("queue position out of range");
    }
    v = static_cast<std::int32_t>(word) - 1;
  }
};

/// A field-list entry: a member and the codec it travels as.
template <typename Codec, typename T, typename V>
struct As {
  V T::*member;
  static constexpr std::size_t kMinBytes = Codec::kMinBytes;
  void put(WireWriter& w, const T& m) const { Codec::put(w, m.*member); }
  void get(WireReader& r, T& m) const { Codec::get(r, m.*member); }
};

template <typename Codec, typename T, typename V>
constexpr As<Codec, T, V> as(V T::*member) {
  return {member};
}

/// A bare member pointer in a field list travels as its C++ type.
template <typename T, typename V>
constexpr As<Wire<V>, T, V> entry(V T::*member) {
  return {member};
}
template <typename Codec, typename T, typename V>
constexpr As<Codec, T, V> entry(As<Codec, T, V> field) {
  return field;
}

// --- Field lists: every record's fields in wire order -----------------------

/// Messages without fields keep the empty list.
template <typename T>
constexpr std::tuple<> kFields{};

template <>
constexpr auto kFields<ConnectRequest> =
    std::tuple{&ConnectRequest::user, &ConnectRequest::credential};
template <>
constexpr auto kFields<ConnectReply> =
    std::tuple{&ConnectReply::ok, &ConnectReply::needs_subscription,
               &ConnectReply::reason};
template <>
constexpr auto kFields<SubscribeRequest> = std::tuple{
    &SubscribeRequest::user,
    &SubscribeRequest::credential,
    &SubscribeRequest::real_name,
    &SubscribeRequest::address,
    &SubscribeRequest::telephone,
    &SubscribeRequest::email,
    &SubscribeRequest::contract,
    as<LevelByte>(&SubscribeRequest::video_floor_level),
    as<LevelByte>(&SubscribeRequest::audio_floor_level)};
template <>
constexpr auto kFields<SubscribeReply> =
    std::tuple{&SubscribeReply::ok, &SubscribeReply::reason};
template <>
constexpr auto kFields<TopicListReply> = std::tuple{&TopicListReply::documents};
template <>
constexpr auto kFields<DocumentRequest> =
    std::tuple{&DocumentRequest::document,
               &DocumentRequest::video_floor_override,
               &DocumentRequest::audio_floor_override};
template <>
constexpr auto kFields<DocumentReply> = std::tuple{
    &DocumentReply::ok,
    &DocumentReply::reason,
    &DocumentReply::markup,
    &DocumentReply::retryable_admission,
    &DocumentReply::admission,
    &DocumentReply::degraded_notches,
    &DocumentReply::retry_after_us,
    as<QueuePosition>(&DocumentReply::queue_position)};
template <>
constexpr auto kFields<StreamSetup::StreamPort> =
    std::tuple{&StreamSetup::StreamPort::stream_id,
               &StreamSetup::StreamPort::rtp_port};
template <>
constexpr auto kFields<StreamSetup> =
    std::tuple{&StreamSetup::document, &StreamSetup::streams,
               &StreamSetup::time_window_us, &StreamSetup::resume_offset_us};
template <>
constexpr auto kFields<StreamSetupReply::StreamInfo> = std::tuple{
    &StreamSetupReply::StreamInfo::stream_id,
    &StreamSetupReply::StreamInfo::via_rtp,
    &StreamSetupReply::StreamInfo::ssrc,
    &StreamSetupReply::StreamInfo::payload_type,
    &StreamSetupReply::StreamInfo::clock_rate,
    &StreamSetupReply::StreamInfo::sender_rtcp_node,
    &StreamSetupReply::StreamInfo::sender_rtcp_port,
    &StreamSetupReply::StreamInfo::tcp_node,
    &StreamSetupReply::StreamInfo::tcp_port,
    &StreamSetupReply::StreamInfo::total_bytes,
    &StreamSetupReply::StreamInfo::frame_interval_us,
    &StreamSetupReply::StreamInfo::frame_count,
    as<LevelByte>(&StreamSetupReply::StreamInfo::initial_level)};
template <>
constexpr auto kFields<StreamSetupReply> =
    std::tuple{&StreamSetupReply::ok, &StreamSetupReply::reason,
               &StreamSetupReply::streams};
template <>
constexpr auto kFields<StopStream> = std::tuple{&StopStream::stream_id};
template <>
constexpr auto kFields<SearchRequest> = std::tuple{&SearchRequest::token};
template <>
constexpr auto kFields<SearchHit> =
    std::tuple{&SearchHit::document, &SearchHit::server};
template <>
constexpr auto kFields<SearchReply> = std::tuple{&SearchReply::hits};
template <>
constexpr auto kFields<PeerSearchRequest> =
    std::tuple{&PeerSearchRequest::token, &PeerSearchRequest::request_id};
template <>
constexpr auto kFields<PeerSearchReply> =
    std::tuple{&PeerSearchReply::request_id, &PeerSearchReply::hits};
template <>
constexpr auto kFields<SuspendAck> = std::tuple{&SuspendAck::keepalive_us};
template <>
constexpr auto kFields<ResumeSession> = std::tuple{&ResumeSession::user};
template <>
constexpr auto kFields<ResumeSessionReply> =
    std::tuple{&ResumeSessionReply::ok, &ResumeSessionReply::reason};
template <>
constexpr auto kFields<MailSend> = std::tuple{
    &MailSend::to, &MailSend::subject, &MailSend::body, &MailSend::mime_type};
template <>
constexpr auto kFields<MailFetch> = std::tuple{&MailFetch::index};
template <>
constexpr auto kFields<MailList> = std::tuple{&MailList::subjects};
template <>
constexpr auto kFields<Annotate> =
    std::tuple{&Annotate::document, &Annotate::remark};
template <>
constexpr auto kFields<AnnotationListRequest> =
    std::tuple{&AnnotationListRequest::document};
template <>
constexpr auto kFields<AnnotationListReply> =
    std::tuple{&AnnotationListReply::document, &AnnotationListReply::remarks};
template <>
constexpr auto kFields<DirectoryEntry> =
    std::tuple{&DirectoryEntry::name, &DirectoryEntry::description,
               &DirectoryEntry::node, &DirectoryEntry::port};
template <>
constexpr auto kFields<DirectoryListReply> =
    std::tuple{&DirectoryListReply::servers};
template <>
constexpr auto kFields<ErrorReply> = std::tuple{&ErrorReply::what};

/// A record travels as its field list, in order, so its minimum size is
/// the sum of its fields' minimum sizes.
template <typename T>
struct Wire {
  static_assert(std::is_empty_v<T> ||
                    std::tuple_size_v<decltype(kFields<T>)> > 0,
                "a record with fields needs a field list");
  static constexpr std::size_t kMinBytes = std::apply(
      [](auto... f) {
        return (std::size_t{0} + ... + decltype(entry(f))::kMinBytes);
      },
      kFields<T>);
  static void put(WireWriter& w, const T& m) {
    std::apply([&](auto... f) { (entry(f).put(w, m), ...); }, kFields<T>);
  }
  static void get(WireReader& r, T& m) {
    std::apply([&](auto... f) { (entry(f).get(r, m), ...); }, kFields<T>);
  }
};

template <typename T>
Message decode_as(WireReader& r) {
  T m;
  Wire<T>::get(r, m);
  return Message{std::move(m)};
}

using Decoder = Message (*)(WireReader&);

/// One decoder per type byte (Message variant index + 1).
template <std::size_t... I>
constexpr std::array<Decoder, sizeof...(I)> decoders(
    std::index_sequence<I...>) {
  return {&decode_as<std::variant_alternative_t<I, Message>>...};
}

constexpr auto kDecoders =
    decoders(std::make_index_sequence<std::variant_size_v<Message>>());

/// message_name()'s table, in Message variant order.
constexpr std::string_view kNames[] = {
    "ConnectRequest", "ConnectReply", "SubscribeRequest", "SubscribeReply",
    "TopicListRequest", "TopicListReply", "DocumentRequest", "DocumentReply",
    "StreamSetup", "StreamSetupReply", "Pause", "Resume", "StopStream",
    "SearchRequest", "SearchReply", "PeerSearchRequest", "PeerSearchReply",
    "Suspend", "SuspendAck", "SuspendExpired", "ResumeSession",
    "ResumeSessionReply", "Disconnect", "MailSend", "MailFetch", "MailList",
    "Annotate", "AnnotationListRequest", "AnnotationListReply",
    "DirectoryListRequest", "DirectoryListReply", "ErrorReply"};
static_assert(std::size(kNames) == std::variant_size_v<Message>);

}  // namespace

net::Payload encode(const Message& msg, const telemetry::TraceContext& ctx) {
  net::Payload out;
  WireWriter w(out);
  w.u32(ctx.trace_id);
  w.u32(ctx.span_id);
  w.u8(static_cast<std::uint8_t>(msg.index() + 1));
  std::visit(
      [&w](const auto& m) { Wire<std::decay_t<decltype(m)>>::put(w, m); },
      msg);
  return out;
}

net::Payload encode(const Message& msg) {
  return encode(msg, telemetry::TraceContext{});
}

util::Result<Message> decode(const net::Payload& frame,
                             telemetry::TraceContext* ctx) {
  if (frame.empty()) return util::parse_error("empty protocol frame");
  try {
    WireReader r(frame);
    telemetry::TraceContext envelope;
    envelope.trace_id = r.u32();
    envelope.span_id = r.u32();
    if (ctx != nullptr) *ctx = envelope;
    const std::uint8_t type = r.u8();
    if (type == 0 || type > kDecoders.size()) {
      return util::parse_error("unknown protocol message type");
    }
    return kDecoders[type - 1](r);
  } catch (const std::out_of_range&) {
    return util::parse_error("truncated protocol frame");
  } catch (const std::range_error& e) {
    return util::parse_error(e.what());
  }
}

util::Result<Message> decode(const net::Payload& frame) {
  return decode(frame, nullptr);
}

std::string message_name(const Message& msg) {
  return std::string(kNames[msg.index()]);
}

}  // namespace hyms::proto
