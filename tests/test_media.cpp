#include <gtest/gtest.h>

#include "media/frame.hpp"
#include "media/profiles.hpp"
#include "media/quality.hpp"
#include "media/source.hpp"

namespace hyms {
namespace {

using namespace hyms::media;

// --- profiles -----------------------------------------------------------------------

TEST(VideoProfileTest, LadderBitratesDecrease) {
  VideoProfile profile;
  const auto levels = profile.levels();
  ASSERT_EQ(levels.size(), profile.compression_factors.size());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i].bitrate_bps, levels[i - 1].bitrate_bps);
  }
  EXPECT_DOUBLE_EQ(levels[0].bitrate_bps, profile.base_bitrate_bps);
}

TEST(VideoProfileTest, FrameInterval) {
  VideoProfile profile;
  profile.fps = 25.0;
  EXPECT_EQ(profile.frame_interval(), Time::msec(40));
}

TEST(VideoProfileTest, GopPreservesMeanFrameSize) {
  VideoProfile profile;
  for (int level = 0; level < profile.level_count(); ++level) {
    std::size_t total = 0;
    for (int k = 0; k < profile.gop_size; ++k) {
      total += profile.frame_bytes(level, k);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(profile.gop_size);
    EXPECT_NEAR(mean, static_cast<double>(profile.mean_frame_bytes(level)),
                static_cast<double>(profile.mean_frame_bytes(level)) * 0.02)
        << "level " << level;
  }
}

TEST(VideoProfileTest, IFramesLargerThanPFrames) {
  VideoProfile profile;
  EXPECT_GT(profile.frame_bytes(0, 0), profile.frame_bytes(0, 1));
  EXPECT_EQ(profile.frame_bytes(0, 0), profile.frame_bytes(0, 12));  // GOP period
}

TEST(AudioProfileTest, BitsPerSampleByFormat) {
  AudioProfile pcm;
  pcm.format = AudioFormat::kPcm;
  EXPECT_EQ(pcm.bits_per_sample(), 16);
  AudioProfile adpcm;
  adpcm.format = AudioFormat::kAdpcm;
  EXPECT_EQ(adpcm.bits_per_sample(), 4);
  AudioProfile vadpcm;
  vadpcm.format = AudioFormat::kVadpcm;
  EXPECT_EQ(vadpcm.bits_per_sample(), 3);
}

TEST(AudioProfileTest, SamplingFrequencyLadder) {
  AudioProfile profile;
  // 44.1kHz * 16 bits mono = 705.6 kbps at the top level.
  EXPECT_NEAR(profile.bitrate_bps(0), 705'600.0, 1.0);
  EXPECT_NEAR(profile.bitrate_bps(3), 128'000.0, 1.0);
  // Frame bytes = bitrate/8 * 40ms.
  EXPECT_EQ(profile.frame_bytes(0), 3528u);
}

TEST(ImageProfileTest, QualityScalesBytes) {
  ImageProfile profile;
  const auto best = profile.bytes(0);
  const auto worst = profile.bytes(profile.level_count() - 1);
  EXPECT_GT(best, worst);
  EXPECT_NEAR(static_cast<double>(worst) / static_cast<double>(best), 0.2,
              0.01);
}

TEST(ImageProfileTest, FormatAffectsSize) {
  ImageProfile jpeg;
  jpeg.format = ImageFormat::kJpeg;
  ImageProfile bmp;
  bmp.format = ImageFormat::kBmp;
  EXPECT_GT(bmp.bytes(0), jpeg.bytes(0) * 10);  // raster vs compressed
}

TEST(TypesTest, Names) {
  EXPECT_EQ(to_string(MediaType::kVideo), "video");
  EXPECT_EQ(to_string(ImageFormat::kJpeg), "jpeg");
  EXPECT_EQ(to_string(AudioFormat::kVadpcm), "vadpcm");
  EXPECT_EQ(to_string(VideoFormat::kMpeg), "mpeg");
}

// --- frame payloads ------------------------------------------------------------------

TEST(FramePayloadTest, EncodeVerifyRoundTrip) {
  const auto payload = encode_frame_payload(0xABCD, 42, 3, 500);
  EXPECT_EQ(payload.size(), 500u);
  const auto meta = verify_frame_payload(payload);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->source_hash, 0xABCDu);
  EXPECT_EQ(meta->index, 42);
  EXPECT_EQ(meta->quality_level, 3);
}

TEST(FramePayloadTest, CorruptionDetected) {
  auto payload = encode_frame_payload(1, 2, 0, 200);
  payload[100] ^= 0x01;
  EXPECT_FALSE(verify_frame_payload(payload).has_value());
}

TEST(FramePayloadTest, TruncationDetected) {
  auto payload = encode_frame_payload(1, 2, 0, 200);
  payload.resize(150);
  EXPECT_FALSE(verify_frame_payload(payload).has_value());
}

TEST(FramePayloadTest, HeaderMinimumEnforced) {
  const auto payload = encode_frame_payload(1, 2, 0, 0);
  EXPECT_GE(payload.size(), 21u);
  EXPECT_TRUE(verify_frame_payload(payload).has_value());
}

TEST(FramePayloadTest, DistinctKeysGiveDistinctBodies) {
  const auto a = encode_frame_payload(1, 0, 0, 100);
  const auto b = encode_frame_payload(1, 1, 0, 100);
  const auto c = encode_frame_payload(2, 0, 0, 100);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(FramePayloadTest, BodyFormatIsPinned) {
  // One xorshift64 step per 8 body bytes, little-endian; the 479-byte body
  // ends in a 7-byte partial word taken from the low bytes of one more step.
  const auto payload = encode_frame_payload(0xABCD, 42, 3, 500);
  ASSERT_EQ(payload.size(), 500u);
  const std::vector<std::uint8_t> head(payload.begin() + kFrameHeaderBytes,
                                       payload.begin() + kFrameHeaderBytes + 16);
  const std::vector<std::uint8_t> tail(payload.end() - 5, payload.end());
  EXPECT_EQ(head, (std::vector<std::uint8_t>{0x07, 0x07, 0xA2, 0x04, 0x7E,
                                             0xBA, 0xFB, 0x39, 0xC9, 0x62,
                                             0x58, 0x55, 0x8B, 0x33, 0x16,
                                             0x6A}));
  EXPECT_EQ(tail, (std::vector<std::uint8_t>{0x7A, 0x36, 0x27, 0xBA, 0xF5}));
}

TEST(FramePayloadTest, RoundTripsEveryTailLength) {
  // 0..20 hit the header floor; 21..40 give body lengths 0..19, so every
  // tail length 0..7 appears both alone and after a full word.
  for (std::size_t total = 0; total <= 40; ++total) {
    const auto payload = encode_frame_payload(0x5EED, 7, 2, total);
    ASSERT_EQ(payload.size(), encoded_frame_size(total)) << total;
    const auto meta = verify_frame_payload(payload);
    ASSERT_TRUE(meta.has_value()) << total;
    EXPECT_EQ(meta->source_hash, 0x5EEDu);
    EXPECT_EQ(meta->index, 7);
    EXPECT_EQ(meta->quality_level, 2);
  }
}

TEST(FramePayloadTest, SourceNameHashStable) {
  EXPECT_EQ(hash_source_name("video:mpeg:x"), hash_source_name("video:mpeg:x"));
  EXPECT_NE(hash_source_name("a"), hash_source_name("b"));
}

// --- sources ------------------------------------------------------------------------

TEST(VideoSourceTest, FrameCountAndTimes) {
  VideoProfile profile;
  VideoSource source("video:mpeg:test", profile, Time::sec(4));
  EXPECT_EQ(source.frame_count(), 100);  // 4s * 25fps
  const auto f = source.shared_frame(10, 0);
  EXPECT_EQ(f.media_time, Time::msec(400));
  EXPECT_EQ(f.duration, Time::msec(40));
  EXPECT_TRUE(verify_frame_payload(*f.payload).has_value());
}

TEST(VideoSourceTest, DeterministicFrames) {
  VideoProfile profile;
  VideoSource a("video:mpeg:same", profile, Time::sec(2));
  VideoSource b("video:mpeg:same", profile, Time::sec(2));
  EXPECT_EQ(*a.shared_frame(7, 1).payload, *b.shared_frame(7, 1).payload);
}

TEST(VideoSourceTest, LevelsShrinkFrames) {
  VideoProfile profile;
  VideoSource source("video:mpeg:test", profile, Time::sec(2));
  EXPECT_GT(source.shared_frame(1, 0).payload->size(),
            source.shared_frame(1, profile.level_count() - 1).payload->size());
}

TEST(VideoSourceTest, OutOfRangeThrows) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  EXPECT_THROW((void)source.shared_frame(-1, 0), std::out_of_range);
  EXPECT_THROW((void)source.shared_frame(source.frame_count(), 0),
               std::out_of_range);
  EXPECT_THROW((void)source.shared_frame(0, 99), std::out_of_range);
}

TEST(AudioSourceTest, BlocksAndVerification) {
  AudioProfile profile;
  AudioSource source("audio:pcm:test", profile, Time::sec(2));
  EXPECT_EQ(source.frame_count(), 50);  // 2s / 40ms
  const auto f = source.shared_frame(49, 0);
  EXPECT_EQ(f.media_time, Time::msec(49 * 40));
  const auto meta = verify_frame_payload(*f.payload);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->index, 49);
}

TEST(ImageSourceTest, SingleFrame) {
  ImageProfile profile;
  ImageSource source("image:jpeg:pic", profile);
  EXPECT_EQ(source.frame_count(), 1);
  EXPECT_EQ(source.duration(), Time::zero());
  const auto f = source.shared_frame(0, 0);
  EXPECT_EQ(f.payload->size(), profile.bytes(0));
  EXPECT_THROW((void)source.shared_frame(1, 0), std::out_of_range);
}

TEST(TextSourceTest, CarriesContentVerbatim) {
  TextSource source("text:plain:doc", "hello world");
  const auto f = source.shared_frame(0, 0);
  EXPECT_EQ(std::string(f.payload->begin(), f.payload->end()), "hello world");
  EXPECT_EQ(source.level_count(), 1);
}

// --- parameterized format sweeps ------------------------------------------------------

class AudioFormatSweep : public ::testing::TestWithParam<media::AudioFormat> {};

TEST_P(AudioFormatSweep, LadderMonotoneAndFramesVerify) {
  AudioProfile profile;
  profile.format = GetParam();
  AudioSource source("audio:sweep", profile, Time::sec(2));
  for (int level = 0; level < source.level_count(); ++level) {
    if (level > 0) {
      EXPECT_LT(source.bitrate_bps(level), source.bitrate_bps(level - 1));
      EXPECT_LT(profile.frame_bytes(level), profile.frame_bytes(level - 1));
    }
    const auto frame = source.shared_frame(0, level);
    const auto meta = verify_frame_payload(*frame.payload);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->quality_level, level);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, AudioFormatSweep,
                         ::testing::Values(AudioFormat::kPcm,
                                           AudioFormat::kAdpcm,
                                           AudioFormat::kVadpcm));

class ImageFormatSweep : public ::testing::TestWithParam<media::ImageFormat> {};

TEST_P(ImageFormatSweep, QualityLaddersShrinkBytes) {
  ImageProfile profile;
  profile.format = GetParam();
  ImageSource source("image:sweep", profile);
  for (int level = 1; level < source.level_count(); ++level) {
    EXPECT_LT(profile.bytes(level), profile.bytes(level - 1));
  }
  const auto frame = source.shared_frame(0, source.level_count() - 1);
  EXPECT_TRUE(verify_frame_payload(*frame.payload).has_value());
}

INSTANTIATE_TEST_SUITE_P(Formats, ImageFormatSweep,
                         ::testing::Values(ImageFormat::kGif,
                                           ImageFormat::kTiff,
                                           ImageFormat::kBmp,
                                           ImageFormat::kJpeg));

class VideoFormatSweep : public ::testing::TestWithParam<media::VideoFormat> {};

TEST_P(VideoFormatSweep, GopStructureHoldsAtEveryLevel) {
  VideoProfile profile;
  profile.format = GetParam();
  VideoSource source("video:sweep", profile, Time::sec(2));
  for (int level = 0; level < source.level_count(); ++level) {
    // I-frame every gop_size frames, strictly larger than P-frames.
    EXPECT_GT(profile.frame_bytes(level, 0),
              profile.frame_bytes(level, 1));
    EXPECT_EQ(profile.frame_bytes(level, 0),
              profile.frame_bytes(level, profile.gop_size));
    const auto frame = source.shared_frame(3, level);
    EXPECT_TRUE(verify_frame_payload(*frame.payload).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, VideoFormatSweep,
                         ::testing::Values(VideoFormat::kAvi,
                                           VideoFormat::kMpeg));

// --- quality converter -----------------------------------------------------------------

TEST(QualityConverterTest, WalksLadderWithinBounds) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, 3);

  EXPECT_EQ(converter.current_level(), 0);
  EXPECT_TRUE(converter.at_best());
  EXPECT_FALSE(converter.upgrade());  // already best

  EXPECT_TRUE(converter.degrade());
  EXPECT_TRUE(converter.degrade());
  EXPECT_TRUE(converter.degrade());
  EXPECT_EQ(converter.current_level(), 3);
  EXPECT_TRUE(converter.at_floor());
  EXPECT_FALSE(converter.degrade()) << "must not pass the user floor";

  EXPECT_TRUE(converter.upgrade());
  EXPECT_EQ(converter.current_level(), 2);
  EXPECT_EQ(converter.stats().degrades, 3);
  EXPECT_EQ(converter.stats().upgrades, 1);
}

TEST(QualityConverterTest, BitrateFollowsLevel) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, profile.level_count() - 1);
  const double best = converter.current_bitrate_bps();
  converter.degrade();
  EXPECT_LT(converter.current_bitrate_bps(), best);
}

TEST(QualityConverterTest, FloorClampedToLadder) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, 99);
  EXPECT_EQ(converter.floor_level(), profile.level_count() - 1);
  QualityConverter floor0(source, 0);
  EXPECT_TRUE(floor0.at_floor());
  EXPECT_FALSE(floor0.degrade());
}

TEST(QualityConverterTest, SetLevelValidates) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, 3);
  converter.set_level(2);
  EXPECT_EQ(converter.current_level(), 2);
  EXPECT_THROW(converter.set_level(-1), std::out_of_range);
  EXPECT_THROW(converter.set_level(99), std::out_of_range);
}

}  // namespace
}  // namespace hyms
