#include "media/source.hpp"

#include <stdexcept>

namespace hyms::media {

namespace {
void check_range(std::int64_t index, std::int64_t count, int level,
                 int level_count, const std::string& name) {
  if (index < 0 || index >= count) {
    throw std::out_of_range("frame index " + std::to_string(index) +
                            " out of range for " + name);
  }
  if (level < 0 || level >= level_count) {
    throw std::out_of_range("quality level " + std::to_string(level) +
                            " out of range for " + name);
  }
}

std::uint64_t fnv64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

SharedFrame MediaSource::shared_frame(std::int64_t index, int level,
                                      FrameCache* cache) const {
  SharedFrame f;
  f.index = index;
  f.media_time = frame_interval() * index;
  f.duration = frame_interval();
  f.quality_level = level;
  f.payload = cache != nullptr
                  ? cache->get(*this, index, level)
                  : std::make_shared<const std::vector<std::uint8_t>>(
                        synthesize_payload(index, level));
  return f;
}

VideoSource::VideoSource(std::string name, VideoProfile profile, Time duration)
    : name_(std::move(name)), profile_(std::move(profile)),
      duration_(duration) {}

std::int64_t VideoSource::frame_count() const {
  return duration_.us() / profile_.frame_interval().us();
}

double VideoSource::bitrate_bps(int level) const {
  return profile_.base_bitrate_bps /
         profile_.compression_factors[static_cast<std::size_t>(level)];
}

std::size_t VideoSource::frame_bytes(std::int64_t index, int level) const {
  check_range(index, frame_count(), level, level_count(), name_);
  return encoded_frame_size(profile_.frame_bytes(level, index));
}

std::vector<std::uint8_t> VideoSource::synthesize_payload(std::int64_t index,
                                                          int level) const {
  check_range(index, frame_count(), level, level_count(), name_);
  return encode_frame_payload(source_hash(), index, level,
                              profile_.frame_bytes(level, index));
}

AudioSource::AudioSource(std::string name, AudioProfile profile, Time duration)
    : name_(std::move(name)), profile_(std::move(profile)),
      duration_(duration) {}

std::int64_t AudioSource::frame_count() const {
  return duration_.us() / profile_.frame_interval().us();
}

std::size_t AudioSource::frame_bytes(std::int64_t index, int level) const {
  check_range(index, frame_count(), level, level_count(), name_);
  return encoded_frame_size(profile_.frame_bytes(level));
}

std::vector<std::uint8_t> AudioSource::synthesize_payload(std::int64_t index,
                                                          int level) const {
  check_range(index, frame_count(), level, level_count(), name_);
  return encode_frame_payload(source_hash(), index, level,
                              profile_.frame_bytes(level));
}

ImageSource::ImageSource(std::string name, ImageProfile profile)
    : name_(std::move(name)), profile_(std::move(profile)) {}

std::size_t ImageSource::frame_bytes(std::int64_t index, int level) const {
  check_range(index, 1, level, level_count(), name_);
  return encoded_frame_size(profile_.bytes(level));
}

std::vector<std::uint8_t> ImageSource::synthesize_payload(std::int64_t index,
                                                          int level) const {
  check_range(index, 1, level, level_count(), name_);
  return encode_frame_payload(source_hash(), 0, level, profile_.bytes(level));
}

TextSource::TextSource(std::string name, std::string content)
    : name_(std::move(name)), content_(std::move(content)),
      content_key_((static_cast<std::uint64_t>(source_hash()) << 32) ^
                   fnv64(content_)) {}

std::vector<QualityLevel> TextSource::levels() const {
  return {QualityLevel{0, "plain text", 0.0}};
}

std::size_t TextSource::frame_bytes(std::int64_t index, int level) const {
  check_range(index, 1, level, 1, name_);
  return content_.size();
}

std::vector<std::uint8_t> TextSource::synthesize_payload(std::int64_t index,
                                                         int level) const {
  check_range(index, 1, level, 1, name_);
  return {content_.begin(), content_.end()};
}

std::uint64_t TextSource::content_key() const { return content_key_; }

}  // namespace hyms::media
