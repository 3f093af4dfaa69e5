#pragma once

#include <cstdint>
#include <ranges>
#include <span>

#include "net/packet.hpp"
#include "net/wire.hpp"

namespace hyms::net {

// The segment codec of the TCP-like transport (StreamConnection). Internal
// to the transport; it has a header of its own so that tests can drive the
// decoder with hostile input.
//
// Wire format: checksum(4) flags(1) seq(4) ack(4) len(2) payload(len), big-
// endian. The checksum covers everything after it. It is FNV-1a run in two
// lanes over little-endian 32-bit words (even words in one lane, odd words
// in the other), then byte by byte over the 0-3 tail bytes, and the lanes
// are folded together at the end. It plays TCP's checksum role: a segment
// corrupted on the wire is silently discarded and recovered by
// retransmission. Each step (lane ^ x) * prime is a bijection of its lane,
// so a change confined to one word or tail byte always changes the sum;
// that includes every single-bit flip.

inline constexpr std::size_t kSegmentHeaderBytes = 15;

struct Segment {
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  /// Views the decoded wire buffer.
  std::span<const std::uint8_t> data;
};

/// Write the checksum of the segment in `wire` into its first four bytes.
void seal_segment(Payload& wire);

/// A segment carrying `data`, which may be any sized range of bytes (such as
/// a slice of a send buffer): the bytes are copied once, straight into a
/// wire buffer taken from `pool`.
template <std::ranges::sized_range Bytes>
[[nodiscard]] Payload encode_segment(PayloadPool& pool, std::uint8_t flags,
                                     std::uint32_t seq, std::uint32_t ack,
                                     const Bytes& data) {
  const std::size_t len = std::ranges::size(data);
  Payload out = pool.acquire(kSegmentHeaderBytes + len);
  WireWriter w(out);
  w.u32(0);  // the checksum, written by seal_segment
  w.u8(flags);
  w.u32(seq);
  w.u32(ack);
  w.u16(static_cast<std::uint16_t>(len));
  out.insert(out.end(), std::ranges::begin(data), std::ranges::end(data));
  seal_segment(out);
  return out;
}

/// Decode `wire` into `seg` (whose data then views `wire`). Rejects a
/// segment shorter than the header, one whose checksum does not match, and
/// one whose length word disagrees with the payload it carries.
[[nodiscard]] bool decode_segment(const Payload& wire, Segment& seg);

}  // namespace hyms::net
