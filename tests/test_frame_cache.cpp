#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "media/frame.hpp"
#include "media/frame_cache.hpp"
#include "media/source.hpp"
#include "telemetry/metrics.hpp"

namespace hyms {
namespace {

// The shared frame-synthesis cache must be invisible to outcomes: a cache
// hit hands back exactly the bytes a fresh synthesis would produce, for
// every source type and quality level, no matter which session (or thread)
// populated the entry. These tests pin that down, plus the LRU/byte-budget
// mechanics and the refcount guarantee that in-flight payloads survive
// eviction. CI runs the suite under TSan too — the concurrency test below
// is its race detector fodder.

std::vector<std::unique_ptr<media::MediaSource>> all_source_types() {
  std::vector<std::unique_ptr<media::MediaSource>> sources;
  sources.push_back(std::make_unique<media::VideoSource>(
      "video:mpeg:cachetest", media::VideoProfile{}, Time::sec(2)));
  sources.push_back(std::make_unique<media::AudioSource>(
      "audio:pcm:cachetest", media::AudioProfile{}, Time::sec(2)));
  sources.push_back(std::make_unique<media::ImageSource>(
      "image:jpeg:cachetest", media::ImageProfile{}));
  sources.push_back(std::make_unique<media::TextSource>(
      "text:plain:cachetest", "shared frame cache under test"));
  return sources;
}

TEST(FrameCacheTest, CachedMatchesFreshSynthesisAllSourceTypes) {
  media::FrameCache cache;
  for (const auto& source : all_source_types()) {
    const std::int64_t frames = std::min<std::int64_t>(source->frame_count(), 8);
    for (int level = 0; level < source->level_count(); ++level) {
      for (std::int64_t i = 0; i < frames; ++i) {
        // No cache is the reference path: a fresh synthesis.
        const auto fresh = source->shared_frame(i, level);
        const auto cached = cache.get(*source, i, level);
        ASSERT_TRUE(cached != nullptr);
        EXPECT_EQ(*cached, *fresh.payload)
            << source->name() << " frame " << i << " level " << level;
        // And through the session-facing entry point with the cache — same
        // bytes all three ways.
        const auto shared = source->shared_frame(i, level, &cache);
        EXPECT_EQ(*shared.payload, *fresh.payload);
      }
    }
  }
}

TEST(FrameCacheTest, HitSharesTheSameBuffer) {
  media::VideoSource source("video:mpeg:hit", media::VideoProfile{},
                            Time::sec(2));
  media::FrameCache cache;
  const auto first = cache.get(source, 3, 0);
  const auto second = cache.get(source, 3, 0);
  // A hit is zero-copy: both handles alias one refcounted body.
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, first->size());
}

TEST(FrameCacheTest, SharedFrameMetadata) {
  media::VideoSource source("video:mpeg:meta", media::VideoProfile{},
                            Time::sec(2));
  media::FrameCache cache;
  const auto shared = source.shared_frame(5, 1, &cache);
  EXPECT_EQ(shared.index, 5);
  EXPECT_EQ(shared.media_time, Time::msec(200));  // 5 frames at 25 fps
  EXPECT_EQ(shared.duration, Time::msec(40));
  EXPECT_EQ(shared.quality_level, 1);
  EXPECT_EQ(shared.payload->size(), source.frame_bytes(5, 1));
}

TEST(FrameCacheTest, LruEvictionUnderTightBudget) {
  // Audio frames are uniform-sized (no GOP burstiness), so the byte budget
  // translates exactly into an entry count.
  media::AudioSource source("audio:pcm:lru", media::AudioProfile{},
                            Time::sec(2));
  const std::size_t frame_size = source.frame_bytes(0, 0);
  // Room for exactly two frames: the third insert evicts the LRU one.
  media::FrameCache cache(media::FrameCache::Config{2 * frame_size});
  auto f0 = cache.get(source, 0, 0);
  auto f1 = cache.get(source, 1, 0);
  EXPECT_EQ(cache.stats().entries, 2u);
  auto f2 = cache.get(source, 2, 0);  // evicts frame 0 (least recent)
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().bytes, cache.byte_budget());
  // 1 and 2 are retained...
  EXPECT_EQ(cache.get(source, 1, 0).get(), f1.get());
  EXPECT_EQ(cache.get(source, 2, 0).get(), f2.get());
  // ...and frame 0 was evicted: a fresh get re-synthesizes (new buffer,
  // same bytes).
  auto f0_again = cache.get(source, 0, 0);
  EXPECT_NE(f0_again.get(), f0.get());
  EXPECT_EQ(*f0_again, *f0);
}

TEST(FrameCacheTest, RecentUseProtectsFromEviction) {
  media::AudioSource source("audio:pcm:touch", media::AudioProfile{},
                            Time::sec(2));
  const std::size_t frame_size = source.frame_bytes(0, 0);
  media::FrameCache cache(media::FrameCache::Config{2 * frame_size});
  auto f0 = cache.get(source, 0, 0);
  auto f1 = cache.get(source, 1, 0);
  // Touch 0 so 1 becomes the LRU victim.
  (void)cache.get(source, 0, 0);
  (void)cache.get(source, 2, 0);
  EXPECT_EQ(cache.get(source, 0, 0).get(), f0.get());  // hit: survived
  EXPECT_NE(cache.get(source, 1, 0).get(), f1.get());  // miss: evicted
}

TEST(FrameCacheTest, EvictedHandleStaysValid) {
  media::AudioSource source("audio:pcm:liveness", media::AudioProfile{},
                            Time::sec(2));
  const std::size_t frame_size = source.frame_bytes(0, 0);
  media::FrameCache cache(media::FrameCache::Config{frame_size});
  const auto held = cache.get(source, 0, 0);
  // Push enough frames through the one-entry cache to evict (and, absent
  // the refcount, free) frame 0 many times over.
  for (std::int64_t i = 1; i <= 8; ++i) (void)cache.get(source, i, 0);
  EXPECT_GE(cache.stats().evictions, 8);
  // The in-flight handle still holds live, verifiable bytes.
  const auto meta = media::verify_frame_payload(*held);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->index, 0);
  EXPECT_EQ(*held, source.synthesize_payload(0, 0));
}

TEST(FrameCacheTest, ZeroBudgetBypassesCaching) {
  media::VideoSource source("video:mpeg:nocache", media::VideoProfile{},
                            Time::sec(2));
  media::FrameCache cache(media::FrameCache::Config{0});
  const auto a = cache.get(source, 0, 0);
  const auto b = cache.get(source, 0, 0);
  EXPECT_EQ(*a, *b);           // same bytes...
  EXPECT_NE(a.get(), b.get());  // ...but nothing was retained
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(FrameCacheTest, OversizedPayloadIsNotRetained) {
  media::VideoSource source("video:mpeg:big", media::VideoProfile{},
                            Time::sec(2));
  const std::size_t frame_size = source.frame_bytes(0, 0);
  media::FrameCache cache(media::FrameCache::Config{frame_size / 2});
  const auto payload = cache.get(source, 0, 0);
  EXPECT_EQ(*payload, source.synthesize_payload(0, 0));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(FrameCacheTest, TextContentDisambiguatesEqualNames) {
  // Content-carrying sources mix their content into the cache key: two
  // documents whose markup reuses a SOURCE name but carries different text
  // must not serve each other's bytes.
  media::TextSource a("text:plain:slide", "first document's slide");
  media::TextSource b("text:plain:slide", "a different slide body");
  ASSERT_EQ(a.source_hash(), b.source_hash());
  EXPECT_NE(a.content_key(), b.content_key());
  media::FrameCache cache;
  const auto pa = cache.get(a, 0, 0);
  const auto pb = cache.get(b, 0, 0);
  EXPECT_EQ(*pa, a.synthesize_payload(0, 0));
  EXPECT_EQ(*pb, b.synthesize_payload(0, 0));
  EXPECT_NE(*pa, *pb);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(FrameCacheTest, SizeMismatchedCollisionResynthesizes) {
  // Same name, different profiles -> same content_key but different frame
  // sizes. The cache's expected-size check must treat the stale entry as a
  // miss and replace it, never serve wrong-sized bytes. (Equal-size
  // collisions are harmless by construction: synthetic payloads are a pure
  // function of (source_hash, index, level, size).)
  media::VideoProfile small;
  media::VideoProfile large = small;
  large.base_bitrate_bps *= 2;
  media::VideoSource a("video:mpeg:collide", small, Time::sec(2));
  media::VideoSource b("video:mpeg:collide", large, Time::sec(2));
  ASSERT_EQ(a.content_key(), b.content_key());
  ASSERT_NE(a.frame_bytes(0, 0), b.frame_bytes(0, 0));
  media::FrameCache cache;
  const auto pa = cache.get(a, 0, 0);
  const auto pb = cache.get(b, 0, 0);
  EXPECT_EQ(pa->size(), a.frame_bytes(0, 0));
  EXPECT_EQ(pb->size(), b.frame_bytes(0, 0));
  EXPECT_EQ(*pb, b.synthesize_payload(0, 0));
  // And flipping back re-detects the mismatch.
  EXPECT_EQ(*cache.get(a, 0, 0), *pa);
}

TEST(FrameCacheTest, ClearDropsEntriesKeepsStatsAndHandles) {
  media::VideoSource source("video:mpeg:clear", media::VideoProfile{},
                            Time::sec(2));
  media::FrameCache cache;
  const auto held = cache.get(source, 0, 0);
  (void)cache.get(source, 1, 0);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(*held, source.synthesize_payload(0, 0));  // handle survives
}

TEST(FrameCacheTest, TelemetryGauges) {
  media::VideoSource source("video:mpeg:telemetry", media::VideoProfile{},
                            Time::sec(2));
  media::FrameCache cache;
  (void)cache.get(source, 0, 0);
  (void)cache.get(source, 0, 0);
  telemetry::MetricsRegistry metrics;
  cache.flush_telemetry(metrics, "media/frame_cache/");
  EXPECT_EQ(metrics.value("media/frame_cache/hits"), 1.0);
  EXPECT_EQ(metrics.value("media/frame_cache/misses"), 1.0);
  EXPECT_EQ(metrics.value("media/frame_cache/entries"), 1.0);
  EXPECT_EQ(metrics.value("media/frame_cache/hit_rate"), 0.5);
  EXPECT_GT(metrics.value("media/frame_cache/bytes").value_or(0.0), 0.0);
}

TEST(FrameCacheTest, ConcurrentGetsAreRaceFreeAndCorrect) {
  // Many threads hammering one cache over a shared working set — the TSan CI
  // leg's target. Every returned payload must be the synthesis result for
  // its key, racing misses included.
  media::VideoSource source("video:mpeg:stress", media::VideoProfile{},
                            Time::sec(2));
  const std::size_t frame_size = source.frame_bytes(0, 0);
  // Tight budget so eviction churns concurrently with lookups.
  media::FrameCache cache(media::FrameCache::Config{4 * frame_size});
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::thread> workers;
  std::vector<int> bad_payloads(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::int64_t index = (i * (t + 1)) % 8;
        const auto payload = cache.get(source, index, 0);
        const auto meta = media::verify_frame_payload(*payload);
        if (!meta.has_value() || meta->index != index) {
          ++bad_payloads[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad_payloads[static_cast<std::size_t>(t)], 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  EXPECT_LE(stats.bytes, cache.byte_budget());
}

// --- full-session differentials ---------------------------------------------

bench::SessionParams differential_params() {
  bench::SessionParams params;
  params.markup = bench::lecture_markup(8);
  params.seed = 23;
  params.run_for = Time::sec(12);
  params.bernoulli_loss = 0.02;
  params.jitter_stddev = Time::msec(2);
  params.capture_playout_events = true;
  return params;
}

TEST(FrameCacheDifferentialTest, CachedSessionByteIdenticalToUncached) {
  // The ISSUE's headline acceptance: a lossy full session with the cache on
  // (shared handles on the media path) against the per-frame synthesis
  // reference path — byte-identical playout log, RTCP feedback, link drops,
  // fingerprints.
  auto params = differential_params();
  const auto cache = std::make_shared<media::FrameCache>();
  params.frame_cache = cache;
  const auto cached = bench::run_session(params);
  params.frame_cache = nullptr;
  params.frame_cache_bytes = 0;  // disable the server's private cache too
  const auto uncached = bench::run_session(params);

  ASSERT_FALSE(cached.failed) << cached.error;
  ASSERT_FALSE(uncached.failed) << uncached.error;
  EXPECT_GT(cached.totals.fresh, 0);
  EXPECT_FALSE(cached.events_csv.empty());
  EXPECT_EQ(cached.events_csv, uncached.events_csv);
  EXPECT_EQ(cached.rtcp_reports_sent, uncached.rtcp_reports_sent);
  EXPECT_EQ(cached.rtcp_packets_lost, uncached.rtcp_packets_lost);
  EXPECT_EQ(cached.link_dropped_loss, uncached.link_dropped_loss);
  EXPECT_EQ(cached.link_dropped_queue, uncached.link_dropped_queue);
  EXPECT_EQ(bench::session_fingerprint(cached),
            bench::session_fingerprint(uncached));
  // And the cache genuinely carried the media path: a session streams each
  // frame once (misses) but the paced flows re-request nothing, so at
  // minimum the cache saw traffic.
  const auto stats = cache->stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
}

TEST(FrameCacheDifferentialTest, SharedCacheShardedMatchesSequential) {
  // Sessions streaming the SAME document through ONE cache across shards:
  // per-session outcomes must still be bit-identical to a sequential run
  // with no cache at all. (Under TSan this also proves get() is race-free
  // on the real media path.)
  bench::SessionParams base;
  base.markup = bench::lecture_markup(4);
  base.seed = 31;
  base.run_for = Time::sec(6);

  base.frame_cache_bytes = 0;  // reference: caching fully off
  std::vector<std::uint64_t> reference;
  for (int i = 0; i < 4; ++i) {
    auto params = base;
    params.seed = base.seed + static_cast<std::uint64_t>(i);
    reference.push_back(bench::session_fingerprint(bench::run_session(params)));
  }

  auto shared = base;
  shared.frame_cache = std::make_shared<media::FrameCache>();
  const auto sharded = bench::run_sessions_sharded(shared, 4, 2);
  ASSERT_EQ(sharded.size(), 4u);
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(bench::session_fingerprint(sharded[i]), reference[i])
        << "session " << i;
  }
  // Identical documents across sessions -> the cache actually shared work.
  const auto stats = shared.frame_cache->stats();
  EXPECT_GT(stats.hits, 0);
}

}  // namespace
}  // namespace hyms
