#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hyms::media {

/// Frame payload layout (deterministic, integrity-checkable):
///   magic(4) source_hash(4) index(8) level(1) body_len(4) body(body_len)
/// Header fields are big-endian. The body is an xorshift64 stream keyed by
/// (source_hash, index, level): each step's full 64-bit state supplies the
/// next 8 body bytes, little-endian, and when body_len is not a multiple of
/// 8 one more step supplies the last 1-7 bytes from its low bytes. The
/// verifier regenerates the stream and compares every body byte, so any
/// truncation or corruption en route is detectable without shipping real
/// codec data.
struct FrameBody {
  std::uint32_t source_hash = 0;
  std::int64_t index = 0;
  int quality_level = 0;

  friend bool operator==(const FrameBody&, const FrameBody&) = default;
};

[[nodiscard]] std::uint32_t hash_source_name(const std::string& name);

/// Wire size of the frame-payload header: magic + source_hash + index +
/// level + body_len. encode_frame_payload() never emits less than this.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 1 + 4;

/// Actual payload size encode_frame_payload() produces for a requested
/// `total_bytes` (the header is a floor). Size queries (MediaSource::
/// frame_bytes) must agree with this, byte for byte.
[[nodiscard]] constexpr std::size_t encoded_frame_size(
    std::size_t total_bytes) {
  return total_bytes < kFrameHeaderBytes ? kFrameHeaderBytes : total_bytes;
}

/// Build a payload of exactly encoded_frame_size(total_bytes) bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_frame_payload(
    std::uint32_t source_hash, std::int64_t index, int quality_level,
    std::size_t total_bytes);

/// Verify header + body integrity in place; returns decoded metadata on
/// success. The payload may arrive as a list of fragments in order (an RTP
/// frame checked in the wire buffers its fragments arrived in): the header
/// may be split anywhere, and the body stream is carried across fragment
/// boundaries, so the verdict and metadata equal those of the concatenated
/// bytes, and no byte is copied beyond a split header.
[[nodiscard]] std::optional<FrameBody> verify_frame_payload(
    std::span<const std::span<const std::uint8_t>> fragments);
/// The one-buffer form: the same walk over a single fragment.
[[nodiscard]] std::optional<FrameBody> verify_frame_payload(
    std::span<const std::uint8_t> payload);

}  // namespace hyms::media
