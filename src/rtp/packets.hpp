#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace hyms::rtp {

inline constexpr std::uint8_t kRtpVersion = 2;
inline constexpr std::size_t kRtpHeaderSize = 12;
/// Most fragments one frame may span in our payload format. 256 fragments
/// of 1400 bytes is 358 KB, far above any frame the media profiles emit (a
/// 1400 kbps I-frame is about 21 KB, 16 fragments). parse_rtp rejects a
/// larger frag_count, so a hostile count cannot size a receiver's
/// reassembly slot; RtpSender refuses to packetize a frame that needs more.
inline constexpr std::uint16_t kMaxFragments = 256;

/// RTP fixed header (RFC 1889 §5.1), plus our payload-format fragmentation
/// header (frag_index/frag_count, 4 bytes) that plays the role RFC 2435-style
/// payload formats play for real codecs: letting a frame span packets.
struct RtpHeader {
  std::uint8_t payload_type = 0;
  bool marker = false;
  std::uint16_t sequence = 0;
  std::uint32_t timestamp = 0;  // media clock units
  std::uint32_t ssrc = 0;
};

/// One RTP packet. `payload` is borrowed: serializers read it, and
/// parse_rtp points it into the wire buffer it parsed, so a parsed packet is
/// valid only as long as that buffer.
struct RtpPacket {
  RtpHeader header;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::span<const std::uint8_t> payload;
};

[[nodiscard]] net::Payload serialize_rtp(const RtpPacket& pkt);
/// Append the wire form to `out` — lets senders serialize into a recycled
/// buffer (net::PayloadPool) instead of allocating per packet. The payload
/// is read in place (a sender points it at a slice of a FrameCache-shared
/// frame body), so packetizing copies each byte once, into the wire.
void serialize_rtp_into(const RtpPacket& pkt, net::Payload& out);
/// Parse without copying: the result's payload views `wire`. Rejects a
/// packet shorter than the two headers, a version other than 2, and
/// fragment fields outside 0 <= frag_index < frag_count <= kMaxFragments.
[[nodiscard]] std::optional<RtpPacket> parse_rtp(const net::Payload& wire);
/// A temporary wire buffer would leave the parsed payload dangling.
std::optional<RtpPacket> parse_rtp(net::Payload&& wire) = delete;

// --- RTCP (RFC 1889 §6) -----------------------------------------------------

enum class RtcpType : std::uint8_t {
  kSenderReport = 200,
  kReceiverReport = 201,
  kSdes = 202,
  kBye = 203,
  kApp = 204,
};

/// Report block carried in SR/RR packets.
struct ReportBlock {
  std::uint32_t ssrc = 0;              // source this block reports on
  std::uint8_t fraction_lost = 0;      // fixed point /256 since last report
  std::int32_t cumulative_lost = 0;    // signed 24-bit on the wire
  std::uint32_t extended_highest_seq = 0;
  std::uint32_t interarrival_jitter = 0;  // timestamp units
  std::uint32_t last_sr = 0;           // middle 32 bits of SR NTP timestamp
  std::uint32_t delay_since_last_sr = 0;  // 1/65536 s units
};

struct SenderReport {
  std::uint32_t ssrc = 0;
  std::uint64_t ntp_timestamp = 0;   // sim time microseconds (stands in for NTP)
  std::uint32_t rtp_timestamp = 0;
  std::uint32_t packet_count = 0;
  std::uint32_t octet_count = 0;
  std::vector<ReportBlock> reports;
};

struct ReceiverReport {
  std::uint32_t ssrc = 0;  // reporter
  std::vector<ReportBlock> reports;
};

struct Bye {
  std::uint32_t ssrc = 0;
  std::string reason;
};

/// APP packet ("QOSM") — the client QoS manager's feedback report beyond the
/// standard RR fields (§4: "feedback reports ... to carry out conclusions
/// about the connection's condition"). Key/value metric pairs.
struct AppQos {
  std::uint32_t ssrc = 0;
  std::vector<std::pair<std::string, double>> metrics;
};

/// A compound RTCP packet: any subset of the above, in order.
struct RtcpCompound {
  std::vector<SenderReport> sender_reports;
  std::vector<ReceiverReport> receiver_reports;
  std::vector<Bye> byes;
  std::vector<AppQos> app_qos;
};

[[nodiscard]] net::Payload serialize_rtcp(const RtcpCompound& compound);
/// Append the wire form to `out` (see serialize_rtp_into).
void serialize_rtcp_into(const RtcpCompound& compound, net::Payload& out);
[[nodiscard]] std::optional<RtcpCompound> parse_rtcp(const net::Payload& wire);

}  // namespace hyms::rtp
