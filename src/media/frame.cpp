#include "media/frame.hpp"

#include "net/wire.hpp"

namespace hyms::media {

namespace {
constexpr std::uint32_t kMagic = 0x48594D46;  // "HYMF"
constexpr std::size_t kHeaderBytes = kFrameHeaderBytes;
constexpr std::size_t kWordBytes = 8;

std::uint64_t body_stream_seed(std::uint32_t source_hash, std::int64_t index,
                               int level) {
  std::uint64_t x = (static_cast<std::uint64_t>(source_hash) << 32) ^
                    static_cast<std::uint64_t>(index) ^
                    (static_cast<std::uint64_t>(level) << 56);
  x ^= 0x9E3779B97F4A7C15ULL;
  return x;
}

/// One xorshift64 step; the new state is the next 8 body bytes.
std::uint64_t next_body_word(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// Little-endian byte order assembled byte by byte, so the stream does not
// depend on the host; compilers fold each into one 64-bit access.
void store_le64(std::uint8_t* p, std::uint64_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  p[4] = static_cast<std::uint8_t>(v >> 32);
  p[5] = static_cast<std::uint8_t>(v >> 40);
  p[6] = static_cast<std::uint8_t>(v >> 48);
  p[7] = static_cast<std::uint8_t>(v >> 56);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(p[0]) |
         static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 |
         static_cast<std::uint64_t>(p[3]) << 24 |
         static_cast<std::uint64_t>(p[4]) << 32 |
         static_cast<std::uint64_t>(p[5]) << 40 |
         static_cast<std::uint64_t>(p[6]) << 48 |
         static_cast<std::uint64_t>(p[7]) << 56;
}
}  // namespace

std::uint32_t hash_source_name(const std::string& name) {
  std::uint32_t h = 2166136261u;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

std::vector<std::uint8_t> encode_frame_payload(std::uint32_t source_hash,
                                               std::int64_t index,
                                               int quality_level,
                                               std::size_t total_bytes) {
  if (total_bytes < kHeaderBytes) total_bytes = kHeaderBytes;
  const std::size_t body_len = total_bytes - kHeaderBytes;
  std::vector<std::uint8_t> out;
  out.reserve(total_bytes);
  net::WireWriter w(out);
  w.u32(kMagic);
  w.u32(source_hash);
  w.i64(index);
  w.u8(static_cast<std::uint8_t>(quality_level));
  w.u32(static_cast<std::uint32_t>(body_len));
  out.resize(total_bytes);
  std::uint8_t* body = out.data() + kHeaderBytes;
  std::uint64_t state = body_stream_seed(source_hash, index, quality_level);
  const std::size_t full = body_len / kWordBytes * kWordBytes;
  for (std::size_t i = 0; i < full; i += kWordBytes) {
    store_le64(body + i, next_body_word(state));
  }
  if (full < body_len) {
    const std::uint64_t last = next_body_word(state);
    for (std::size_t i = full; i < body_len; ++i) {
      body[i] = static_cast<std::uint8_t>(last >> (8 * (i - full)));
    }
  }
  return out;
}

std::optional<FrameBody> verify_frame_payload(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < kHeaderBytes) return std::nullopt;
  net::WireReader r(payload.data(), payload.size());
  if (r.u32() != kMagic) return std::nullopt;
  FrameBody meta;
  meta.source_hash = r.u32();
  meta.index = r.i64();
  meta.quality_level = r.u8();
  const std::uint32_t body_len = r.u32();
  if (r.remaining() != body_len) return std::nullopt;
  const std::uint8_t* body = r.cursor();
  std::uint64_t state =
      body_stream_seed(meta.source_hash, meta.index, meta.quality_level);
  const std::size_t full = body_len / kWordBytes * kWordBytes;
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < full; i += kWordBytes) {
    diff |= load_le64(body + i) ^ next_body_word(state);
  }
  if (full < body_len) {
    const std::uint64_t last = next_body_word(state);
    for (std::size_t i = full; i < body_len; ++i) {
      diff |= body[i] ^ static_cast<std::uint8_t>(last >> (8 * (i - full)));
    }
  }
  if (diff != 0) return std::nullopt;
  return meta;
}

}  // namespace hyms::media
