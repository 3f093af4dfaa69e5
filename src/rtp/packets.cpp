#include "rtp/packets.hpp"

#include "net/wire.hpp"

namespace hyms::rtp {

using net::WireReader;
using net::WireWriter;

net::Payload serialize_rtp(const RtpPacket& pkt) {
  net::Payload out;
  serialize_rtp_into(pkt, out);
  return out;
}

void serialize_rtp_into(const RtpPacket& pkt, net::Payload& out) {
  out.reserve(out.size() + kRtpHeaderSize + 4 + pkt.payload.size());
  WireWriter w(out);
  // V=2 P=0 X=0 CC=0 -> first byte 0x80; M + PT in second byte.
  w.u8(0x80);
  w.u8(static_cast<std::uint8_t>((pkt.header.marker ? 0x80 : 0) |
                                 (pkt.header.payload_type & 0x7F)));
  w.u16(pkt.header.sequence);
  w.u32(pkt.header.timestamp);
  w.u32(pkt.header.ssrc);
  // Payload-format fragmentation header.
  w.u16(pkt.frag_index);
  w.u16(pkt.frag_count);
  w.bytes(pkt.payload.data(), pkt.payload.size());
}

std::optional<RtpPacket> parse_rtp(const net::Payload& wire) {
  if (wire.size() < kRtpHeaderSize + 4) return std::nullopt;
  WireReader r(wire);
  const std::uint8_t vpxcc = r.u8();
  if ((vpxcc >> 6) != kRtpVersion) return std::nullopt;
  RtpPacket pkt;
  const std::uint8_t mpt = r.u8();
  pkt.header.marker = (mpt & 0x80) != 0;
  pkt.header.payload_type = mpt & 0x7F;
  pkt.header.sequence = r.u16();
  pkt.header.timestamp = r.u32();
  pkt.header.ssrc = r.u32();
  pkt.frag_index = r.u16();
  pkt.frag_count = r.u16();
  if (pkt.frag_count == 0 || pkt.frag_count > kMaxFragments ||
      pkt.frag_index >= pkt.frag_count) {
    return std::nullopt;
  }
  pkt.payload = std::span<const std::uint8_t>(r.cursor(), r.remaining());
  return pkt;
}

namespace {

void write_report_block(WireWriter& w, const ReportBlock& b) {
  w.u32(b.ssrc);
  w.u8(b.fraction_lost);
  // 24-bit signed cumulative lost, clamped as per RFC.
  std::int32_t cum = b.cumulative_lost;
  if (cum > 0x7FFFFF) cum = 0x7FFFFF;
  if (cum < -0x800000) cum = -0x800000;
  const auto ucum = static_cast<std::uint32_t>(cum) & 0xFFFFFF;
  w.u8(static_cast<std::uint8_t>(ucum >> 16));
  w.u16(static_cast<std::uint16_t>(ucum));
  w.u32(b.extended_highest_seq);
  w.u32(b.interarrival_jitter);
  w.u32(b.last_sr);
  w.u32(b.delay_since_last_sr);
}

ReportBlock read_report_block(WireReader& r) {
  ReportBlock b;
  b.ssrc = r.u32();
  b.fraction_lost = r.u8();
  std::uint32_t ucum = (static_cast<std::uint32_t>(r.u8()) << 16) | r.u16();
  if (ucum & 0x800000) ucum |= 0xFF000000;  // sign-extend 24 -> 32 bits
  b.cumulative_lost = static_cast<std::int32_t>(ucum);
  b.extended_highest_seq = r.u32();
  b.interarrival_jitter = r.u32();
  b.last_sr = r.u32();
  b.delay_since_last_sr = r.u32();
  return b;
}

void write_rtcp_header(WireWriter& w, RtcpType type, std::uint8_t count,
                       std::uint16_t length_words) {
  w.u8(static_cast<std::uint8_t>(0x80 | (count & 0x1F)));
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(length_words);  // packet length in 32-bit words minus one
}

}  // namespace

net::Payload serialize_rtcp(const RtcpCompound& compound) {
  net::Payload out;
  serialize_rtcp_into(compound, out);
  return out;
}

void serialize_rtcp_into(const RtcpCompound& compound, net::Payload& out) {
  WireWriter w(out);

  for (const auto& sr : compound.sender_reports) {
    const std::size_t words = 1 + 5 + sr.reports.size() * 6;  // +hdr word
    write_rtcp_header(w, RtcpType::kSenderReport,
                      static_cast<std::uint8_t>(sr.reports.size()),
                      static_cast<std::uint16_t>(words));
    w.u32(sr.ssrc);
    w.u64(sr.ntp_timestamp);
    w.u32(sr.rtp_timestamp);
    w.u32(sr.packet_count);
    w.u32(sr.octet_count);
    for (const auto& b : sr.reports) write_report_block(w, b);
  }
  for (const auto& rr : compound.receiver_reports) {
    const std::size_t words = 1 + rr.reports.size() * 6;
    write_rtcp_header(w, RtcpType::kReceiverReport,
                      static_cast<std::uint8_t>(rr.reports.size()),
                      static_cast<std::uint16_t>(words));
    w.u32(rr.ssrc);
    for (const auto& b : rr.reports) write_report_block(w, b);
  }
  for (const auto& bye : compound.byes) {
    // ssrc word + length-prefixed reason padded to word boundary.
    const std::size_t reason_words = (4 + bye.reason.size() + 3) / 4;
    write_rtcp_header(w, RtcpType::kBye, 1,
                      static_cast<std::uint16_t>(1 + reason_words));
    w.u32(bye.ssrc);
    w.str(bye.reason);
    const std::size_t pad = reason_words * 4 - 4 - bye.reason.size();
    for (std::size_t i = 0; i < pad; ++i) w.u8(0);
  }
  for (const auto& app : compound.app_qos) {
    net::Payload body;
    WireWriter bw(body);
    bw.u32(app.ssrc);
    bw.bytes(reinterpret_cast<const std::uint8_t*>("QOSM"), 4);
    bw.u16(static_cast<std::uint16_t>(app.metrics.size()));
    for (const auto& [key, value] : app.metrics) {
      bw.str(key);
      bw.f64(value);
    }
    while (body.size() % 4 != 0) bw.u8(0);
    write_rtcp_header(w, RtcpType::kApp, 0,
                      static_cast<std::uint16_t>(body.size() / 4));
    w.bytes(body.data(), body.size());
  }
}

std::optional<RtcpCompound> parse_rtcp(const net::Payload& wire) {
  RtcpCompound compound;
  WireReader r(wire);
  try {
    while (r.remaining() >= 4) {
      const std::uint8_t vc = r.u8();
      if ((vc >> 6) != kRtpVersion) return std::nullopt;
      const std::uint8_t count = vc & 0x1F;
      const std::uint8_t type = r.u8();
      const std::uint16_t length_words = r.u16();
      const std::size_t body_bytes = static_cast<std::size_t>(length_words) * 4;
      if (r.remaining() < body_bytes) return std::nullopt;
      // Each packet's body is read through a reader bounded to its declared
      // length: a count that overruns the length fails the parse instead of
      // reading the next packet's bytes. Padding within the length is left
      // unread.
      WireReader body(r.cursor(), body_bytes);
      r.skip(body_bytes);

      switch (static_cast<RtcpType>(type)) {
        case RtcpType::kSenderReport: {
          SenderReport sr;
          sr.ssrc = body.u32();
          sr.ntp_timestamp = body.u64();
          sr.rtp_timestamp = body.u32();
          sr.packet_count = body.u32();
          sr.octet_count = body.u32();
          for (int i = 0; i < count; ++i) {
            sr.reports.push_back(read_report_block(body));
          }
          compound.sender_reports.push_back(std::move(sr));
          break;
        }
        case RtcpType::kReceiverReport: {
          ReceiverReport rr;
          rr.ssrc = body.u32();
          for (int i = 0; i < count; ++i) {
            rr.reports.push_back(read_report_block(body));
          }
          compound.receiver_reports.push_back(std::move(rr));
          break;
        }
        case RtcpType::kBye: {
          Bye bye;
          bye.ssrc = body.u32();
          bye.reason = body.str();
          compound.byes.push_back(std::move(bye));
          break;
        }
        case RtcpType::kApp: {
          AppQos app;
          app.ssrc = body.u32();
          body.skip(4);  // name "QOSM"
          const std::uint16_t n = body.u16();
          for (int i = 0; i < n; ++i) {
            std::string key = body.str();
            const double value = body.f64();
            app.metrics.emplace_back(std::move(key), value);
          }
          compound.app_qos.push_back(std::move(app));
          break;
        }
        default:
          break;  // SDES and unknown types: the body was skipped above
      }
    }
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  return compound;
}

}  // namespace hyms::rtp
