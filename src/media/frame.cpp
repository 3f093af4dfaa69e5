#include "media/frame.hpp"

#include <algorithm>
#include <array>

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
    std::span<const std::span<const std::uint8_t>> fragments) {
  std::size_t total = 0;
  for (const auto fragment : fragments) total += fragment.size();
  if (total < kHeaderBytes) return std::nullopt;
  // The header, read in place, or gathered when a fragment boundary splits
  // it. The cursor (frag, at) is then the first body byte.
  const std::uint8_t* header = fragments[0].data();
  std::array<std::uint8_t, kHeaderBytes> gathered{};
  std::size_t frag = 0;
  std::size_t at = kHeaderBytes;
  if (fragments[0].size() < kHeaderBytes) {
    at = 0;
    for (std::size_t got = 0; got < kHeaderBytes;) {
      if (at == fragments[frag].size()) {
        ++frag;
        at = 0;
        continue;
      }
      const std::size_t take =
          std::min(fragments[frag].size() - at, kHeaderBytes - got);
      std::copy_n(fragments[frag].data() + at, take, gathered.data() + got);
      got += take;
      at += take;
    }
    header = gathered.data();
  }
  net::WireReader r(header, kHeaderBytes);
  if (r.u32() != kMagic) return std::nullopt;
  FrameBody meta;
  meta.source_hash = r.u32();
  meta.index = r.i64();
  meta.quality_level = r.u8();
  const std::uint32_t body_len = r.u32();
  if (total - kHeaderBytes != body_len) return std::nullopt;
  // Compare every body byte with the stream. Whole words are compared in
  // place; a word that a fragment boundary splits (or the short last word)
  // is compared byte by byte, `lane` carrying its position across the
  // boundary (8: no word is open).
  std::uint64_t state =
      body_stream_seed(meta.source_hash, meta.index, meta.quality_level);
  std::uint64_t word = 0;
  std::size_t lane = kWordBytes;
  std::uint64_t diff = 0;
  for (; frag < fragments.size(); ++frag, at = 0) {
    const std::uint8_t* p = fragments[frag].data() + at;
    const std::uint8_t* const end =
        fragments[frag].data() + fragments[frag].size();
    for (; lane < kWordBytes && p != end; ++p, ++lane) {
      diff |= *p ^ static_cast<std::uint8_t>(word >> (8 * lane));
    }
    const std::uint8_t* const words_end =
        p + (end - p) / kWordBytes * kWordBytes;
    for (; p != words_end; p += kWordBytes) {
      diff |= load_le64(p) ^ next_body_word(state);
    }
    if (p != end) {
      word = next_body_word(state);
      for (lane = 0; p != end; ++p, ++lane) {
        diff |= *p ^ static_cast<std::uint8_t>(word >> (8 * lane));
      }
    }
  }
  if (diff != 0) return std::nullopt;
  return meta;
}

std::optional<FrameBody> verify_frame_payload(
    std::span<const std::uint8_t> payload) {
  return verify_frame_payload(
      std::span<const std::span<const std::uint8_t>>(&payload, 1));
}

}  // namespace hyms::media
