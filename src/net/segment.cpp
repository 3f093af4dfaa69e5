#include "net/segment.hpp"

#include <bit>

namespace hyms::net {

namespace {

constexpr std::uint32_t kFnvOffset = 2166136261u;
constexpr std::uint32_t kFnvPrime = 16777619u;

// Assembled byte by byte, so the sum does not depend on the host; compilers
// fold it into one 32-bit load.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t segment_checksum(const std::uint8_t* data, std::size_t size) {
  std::uint32_t even = kFnvOffset;
  std::uint32_t odd = kFnvOffset;
  std::size_t i = 0;
  for (; size - i >= 8; i += 8) {
    even = (even ^ load_le32(data + i)) * kFnvPrime;
    odd = (odd ^ load_le32(data + i + 4)) * kFnvPrime;
  }
  if (size - i >= 4) {
    even = (even ^ load_le32(data + i)) * kFnvPrime;
    i += 4;
  }
  for (; i < size; ++i) odd = (odd ^ data[i]) * kFnvPrime;
  return even ^ std::rotl(odd, 16);
}

}  // namespace

void seal_segment(Payload& wire) {
  const std::uint32_t checksum =
      segment_checksum(wire.data() + 4, wire.size() - 4);
  wire[0] = static_cast<std::uint8_t>(checksum >> 24);
  wire[1] = static_cast<std::uint8_t>(checksum >> 16);
  wire[2] = static_cast<std::uint8_t>(checksum >> 8);
  wire[3] = static_cast<std::uint8_t>(checksum);
}

bool decode_segment(const Payload& wire, Segment& seg) {
  if (wire.size() < kSegmentHeaderBytes) return false;
  WireReader r(wire);
  const std::uint32_t checksum = r.u32();
  if (checksum != segment_checksum(wire.data() + 4, wire.size() - 4)) {
    return false;  // corrupted on the wire: treat as lost
  }
  seg.flags = r.u8();
  seg.seq = r.u32();
  seg.ack = r.u32();
  const std::uint16_t len = r.u16();
  if (r.remaining() != len) return false;
  seg.data = std::span<const std::uint8_t>{r.cursor(), len};
  return true;
}

}  // namespace hyms::net
