#pragma once

#include <memory>
#include <string>
#include <vector>

#include "media/frame.hpp"
#include "media/frame_cache.hpp"
#include "media/profiles.hpp"
#include "media/types.hpp"
#include "util/time.hpp"

namespace hyms::media {

/// One access unit of a media stream: a video frame, an audio block, or a
/// whole image. `media_time` is presentation time relative to the stream's
/// own start (the playout scheduler adds the scenario STARTIME). The body is
/// a shared immutable payload (see FramePayload): metadata is per-request,
/// and the body may be shared with the frame cache and any number of
/// concurrent sessions.
struct SharedFrame {
  std::int64_t index = 0;
  Time media_time;
  Time duration;
  int quality_level = 0;
  FramePayload payload;  // never null
};

/// A stored media object on a media server: deterministic frame generator
/// standing in for a real encoded file (DESIGN.md substitution). Frames are
/// a pure function of (name, index, quality level), so a re-request after a
/// quality change or a seek is exact — and payloads are shareable across
/// every session streaming the same content (FrameCache).
class MediaSource {
 public:
  virtual ~MediaSource() = default;

  [[nodiscard]] virtual MediaType type() const = 0;
  [[nodiscard]] virtual const std::string& name() const = 0;
  /// Intrinsic content length (an image reports zero; it has no timeline).
  [[nodiscard]] virtual Time duration() const = 0;
  [[nodiscard]] virtual Time frame_interval() const = 0;
  [[nodiscard]] virtual std::int64_t frame_count() const = 0;
  [[nodiscard]] virtual std::vector<QualityLevel> levels() const = 0;
  [[nodiscard]] virtual int level_count() const = 0;
  /// Average media bitrate at a level (0 for one-shot images).
  [[nodiscard]] virtual double bitrate_bps(int level) const = 0;

  /// Payload size of frame `index` at `level` WITHOUT synthesizing it —
  /// exactly synthesize_payload(index, level).size(). Preconditions: valid
  /// range.
  [[nodiscard]] virtual std::size_t frame_bytes(std::int64_t index,
                                                int level) const = 0;
  /// Synthesize just the payload bytes of frame `index` at `level`.
  /// Preconditions: valid range.
  [[nodiscard]] virtual std::vector<std::uint8_t> synthesize_payload(
      std::int64_t index, int level) const = 0;
  /// 64-bit identity of the byte stream this source generates, the frame
  /// cache's key component. Sources whose payloads are a pure function of
  /// (source_hash, index, level, size) — all the synthetic ones — use the
  /// widened name hash; content-carrying sources must mix their content in.
  [[nodiscard]] virtual std::uint64_t content_key() const {
    return static_cast<std::uint64_t>(source_hash()) << 32 |
           static_cast<std::uint64_t>(source_hash());
  }

  /// Frame `index` at `level` with a shared payload body: served from
  /// `cache` when given (synthesis happens at most once per key across every
  /// session sharing the cache), freshly synthesized otherwise. The payload
  /// bytes are identical either way.
  [[nodiscard]] SharedFrame shared_frame(std::int64_t index, int level,
                                         FrameCache* cache = nullptr) const;

  [[nodiscard]] std::uint32_t source_hash() const {
    return hash_source_name(name());
  }
};

class VideoSource final : public MediaSource {
 public:
  VideoSource(std::string name, VideoProfile profile, Time duration);

  [[nodiscard]] MediaType type() const override { return MediaType::kVideo; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Time duration() const override { return duration_; }
  [[nodiscard]] Time frame_interval() const override {
    return profile_.frame_interval();
  }
  [[nodiscard]] std::int64_t frame_count() const override;
  [[nodiscard]] std::vector<QualityLevel> levels() const override {
    return profile_.levels();
  }
  [[nodiscard]] int level_count() const override {
    return profile_.level_count();
  }
  [[nodiscard]] double bitrate_bps(int level) const override;
  [[nodiscard]] std::size_t frame_bytes(std::int64_t index,
                                        int level) const override;
  [[nodiscard]] std::vector<std::uint8_t> synthesize_payload(
      std::int64_t index, int level) const override;
  [[nodiscard]] const VideoProfile& profile() const { return profile_; }

 private:
  std::string name_;
  VideoProfile profile_;
  Time duration_;
};

class AudioSource final : public MediaSource {
 public:
  AudioSource(std::string name, AudioProfile profile, Time duration);

  [[nodiscard]] MediaType type() const override { return MediaType::kAudio; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Time duration() const override { return duration_; }
  [[nodiscard]] Time frame_interval() const override {
    return profile_.frame_interval();
  }
  [[nodiscard]] std::int64_t frame_count() const override;
  [[nodiscard]] std::vector<QualityLevel> levels() const override {
    return profile_.levels();
  }
  [[nodiscard]] int level_count() const override {
    return profile_.level_count();
  }
  [[nodiscard]] double bitrate_bps(int level) const override {
    return profile_.bitrate_bps(level);
  }
  [[nodiscard]] std::size_t frame_bytes(std::int64_t index,
                                        int level) const override;
  [[nodiscard]] std::vector<std::uint8_t> synthesize_payload(
      std::int64_t index, int level) const override;
  [[nodiscard]] const AudioProfile& profile() const { return profile_; }

 private:
  std::string name_;
  AudioProfile profile_;
  Time duration_;
};

/// A still image: a single one-shot "frame" per quality level.
class ImageSource final : public MediaSource {
 public:
  ImageSource(std::string name, ImageProfile profile);

  [[nodiscard]] MediaType type() const override { return MediaType::kImage; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Time duration() const override { return Time::zero(); }
  [[nodiscard]] Time frame_interval() const override { return Time::zero(); }
  [[nodiscard]] std::int64_t frame_count() const override { return 1; }
  [[nodiscard]] std::vector<QualityLevel> levels() const override {
    return profile_.levels();
  }
  [[nodiscard]] int level_count() const override {
    return profile_.level_count();
  }
  [[nodiscard]] double bitrate_bps(int) const override { return 0.0; }
  [[nodiscard]] std::size_t frame_bytes(std::int64_t index,
                                        int level) const override;
  [[nodiscard]] std::vector<std::uint8_t> synthesize_payload(
      std::int64_t index, int level) const override;
  [[nodiscard]] const ImageProfile& profile() const { return profile_; }

 private:
  std::string name_;
  ImageProfile profile_;
};

/// A text document body: one-shot payload carrying the actual bytes.
class TextSource final : public MediaSource {
 public:
  TextSource(std::string name, std::string content);

  [[nodiscard]] MediaType type() const override { return MediaType::kText; }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Time duration() const override { return Time::zero(); }
  [[nodiscard]] Time frame_interval() const override { return Time::zero(); }
  [[nodiscard]] std::int64_t frame_count() const override { return 1; }
  [[nodiscard]] std::vector<QualityLevel> levels() const override;
  [[nodiscard]] int level_count() const override { return 1; }
  [[nodiscard]] double bitrate_bps(int) const override { return 0.0; }
  [[nodiscard]] std::size_t frame_bytes(std::int64_t index,
                                        int level) const override;
  [[nodiscard]] std::vector<std::uint8_t> synthesize_payload(
      std::int64_t index, int level) const override;
  /// Unlike the synthetic sources, the payload is the content itself: two
  /// same-named text sources with different bodies must not share cache
  /// entries, so the content is hashed into the key.
  [[nodiscard]] std::uint64_t content_key() const override;
  [[nodiscard]] const std::string& content() const { return content_; }

 private:
  std::string name_;
  std::string content_;
  std::uint64_t content_key_;
};

}  // namespace hyms::media
