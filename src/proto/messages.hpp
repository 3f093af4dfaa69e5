#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/packet.hpp"
#include "telemetry/trace_context.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace hyms::proto {

struct ConnectRequest {
  std::string user;
  std::string credential;
};

struct ConnectReply {
  bool ok = false;
  bool needs_subscription = false;
  std::string reason;
};

/// §5: the subscription form ("name and address, telephone, e-mail, etc.").
struct SubscribeRequest {
  std::string user;
  std::string credential;
  std::string real_name;
  std::string address;
  std::string telephone;
  std::string email;
  std::string contract;  // pricing tier name
  /// Worst acceptable quality level per media kind (user QoS thresholds).
  int video_floor_level = 2;
  int audio_floor_level = 2;
};

struct SubscribeReply {
  bool ok = false;
  std::string reason;
};

struct TopicListRequest {};

struct TopicListReply {
  std::vector<std::string> documents;
};

struct DocumentRequest {
  std::string document;
  /// Quality-floor overrides for admission (-1 = use the subscription
  /// floors). A retrying client degrades these per the paper's long-term
  /// recovery when admission at the original floors keeps being refused.
  std::int8_t video_floor_override = -1;
  std::int8_t audio_floor_override = -1;
};

struct DocumentReply {
  bool ok = false;
  std::string reason;       // admission/lookup failure
  std::string markup;       // the presentation scenario text
  /// True when the refusal was an admission-capacity decision the client
  /// may retry with degraded quality floors (vs. lookup/auth failures).
  bool retryable_admission = false;
  /// Typed admission outcome: 0 none/admitted at full quality, 1 degraded
  /// (admitted at lowered floors), 2 queued (a second DocumentReply will
  /// follow when capacity frees or the queue deadline expires), 3 rejected.
  std::uint8_t admission = 0;
  /// Quality-floor steps the server's degradation ladder conceded (1).
  std::int8_t degraded_notches = 0;
  /// Server's backoff hint on rejection (3): come back after this long.
  std::int64_t retry_after_us = 0;
  /// 0-based wait-queue position when queued (2); -1 otherwise.
  std::int32_t queue_position = -1;
};

/// Client -> server: per-stream receive endpoints for the parallel media
/// connections, plus the media time window the client will prefill.
struct StreamSetup {
  struct StreamPort {
    std::string stream_id;
    std::uint16_t rtp_port = 0;  // 0: stream uses the TCP object channel
  };
  std::string document;
  std::vector<StreamPort> streams;
  std::int64_t time_window_us = 500'000;
  /// Scenario position to resume playout from (0 = play from the top). A
  /// recovering session sets this to its last playout position; the server
  /// starts every stream at the corresponding frame.
  std::int64_t resume_offset_us = 0;
};

/// Server -> client: how each stream will arrive.
struct StreamSetupReply {
  struct StreamInfo {
    std::string stream_id;
    bool via_rtp = false;
    // RTP streams:
    std::uint32_t ssrc = 0;
    std::uint8_t payload_type = 0;
    std::uint32_t clock_rate = 90'000;
    std::uint32_t sender_rtcp_node = 0;
    std::uint16_t sender_rtcp_port = 0;
    // TCP object streams (served from the owning media server's host):
    std::uint32_t tcp_node = 0;
    std::uint16_t tcp_port = 0;
    std::uint64_t total_bytes = 0;
    // Common timing facts for the playout scheduler:
    std::int64_t frame_interval_us = 0;
    std::int64_t frame_count = 1;
    int initial_level = 0;
  };
  bool ok = false;
  std::string reason;
  std::vector<StreamInfo> streams;
};

struct Pause {};
struct Resume {};

struct StopStream {
  std::string stream_id;  // user disabled this media (§5)
};

struct SearchRequest {
  std::string token;
};

struct SearchHit {
  std::string document;
  std::string server;  // where it lives
};

struct SearchReply {
  std::vector<SearchHit> hits;
};

struct PeerSearchRequest {
  std::string token;
  std::uint32_t request_id = 0;
};

struct PeerSearchReply {
  std::uint32_t request_id = 0;
  std::vector<SearchHit> hits;
};

struct Suspend {};

struct SuspendAck {
  std::int64_t keepalive_us = 0;  // how long the server will hold the session
};

struct SuspendExpired {};

struct ResumeSession {
  std::string user;
};

struct ResumeSessionReply {
  bool ok = false;
  std::string reason;
};

struct Disconnect {};

/// Asynchronous tutor<->student interaction (§6.2.4), store-and-forward.
struct MailSend {
  std::string to;
  std::string subject;
  std::string body;
  std::string mime_type;  // "text/plain", lesson references, ...
};

struct MailFetch {
  std::int64_t index = 0;
};

struct MailList {
  std::vector<std::string> subjects;
};

/// §5: "The user may also annotate the selected document with his own
/// remarks." Remarks are stored server-side per (user, document).
struct Annotate {
  std::string document;
  std::string remark;
};

struct AnnotationListRequest {
  std::string document;
};

struct AnnotationListReply {
  std::string document;
  std::vector<std::string> remarks;
};

/// §6.2.1: "a list of available Hermes servers is provided. For every
/// Hermes server, a small description concerning the kind of lessons that
/// are stored in it" — served by a standalone directory service.
struct DirectoryListRequest {};

struct DirectoryEntry {
  std::string name;
  std::string description;
  std::uint32_t node = 0;
  std::uint16_t port = 0;
};

struct DirectoryListReply {
  std::vector<DirectoryEntry> servers;
};

struct ErrorReply {
  std::string what;
};

/// Application protocol messages (§5 / Fig. 4), carried as typed frames
/// over the client<->server MessageChannel (TCP-like control connection).
/// A frame's type byte is its message's position in this list plus one, so
/// new messages are appended, never reordered.
using Message = std::variant<
    ConnectRequest, ConnectReply, SubscribeRequest, SubscribeReply,
    TopicListRequest, TopicListReply, DocumentRequest, DocumentReply,
    StreamSetup, StreamSetupReply, Pause, Resume, StopStream, SearchRequest,
    SearchReply, PeerSearchRequest, PeerSearchReply, Suspend, SuspendAck,
    SuspendExpired, ResumeSession, ResumeSessionReply, Disconnect, MailSend,
    MailFetch, MailList, Annotate, AnnotationListRequest, AnnotationListReply,
    DirectoryListRequest, DirectoryListReply, ErrorReply>;

/// Every frame starts with a fixed 8-byte trace envelope
/// ([u32 trace_id][u32 span_id]) ahead of the type byte. The envelope is
/// always present — context {0,0} means "untraced" — so frame sizes and
/// timing never depend on whether a telemetry hub is recording.
[[nodiscard]] net::Payload encode(const Message& msg,
                                  const telemetry::TraceContext& ctx);
[[nodiscard]] net::Payload encode(const Message& msg);
/// `ctx`, when non-null, receives the frame's trace envelope (also on
/// decode failure past the envelope itself).
[[nodiscard]] util::Result<Message> decode(const net::Payload& frame,
                                           telemetry::TraceContext* ctx);
[[nodiscard]] util::Result<Message> decode(const net::Payload& frame);
[[nodiscard]] std::string message_name(const Message& msg);

}  // namespace hyms::proto
