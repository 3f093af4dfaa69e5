#include <gtest/gtest.h>

#include <string>

#include "hermes/sample_content.hpp"
#include "markup/parser.hpp"
#include "server/admission.hpp"
#include "server/flow_scheduler.hpp"
#include "server/catalog.hpp"
#include "server/users.hpp"

namespace hyms {
namespace {

using namespace hyms::server;

// --- MediaCatalog ------------------------------------------------------------------

TEST(MediaCatalogTest, SynthesizesVideoFromConvention) {
  MediaCatalog catalog;
  auto source = catalog.resolve("video:mpeg:lecture:60:1200");
  ASSERT_TRUE(source.ok()) << source.error().message;
  EXPECT_EQ(source.value()->type(), media::MediaType::kVideo);
  EXPECT_EQ(source.value()->duration(), Time::sec(60));
  EXPECT_NEAR(source.value()->bitrate_bps(0), 1.2e6, 1.0);
}

TEST(MediaCatalogTest, SynthesizesAllTypes) {
  MediaCatalog catalog;
  EXPECT_TRUE(catalog.resolve("video:avi:x").ok());
  EXPECT_TRUE(catalog.resolve("audio:pcm:x").ok());
  EXPECT_TRUE(catalog.resolve("audio:adpcm:x").ok());
  EXPECT_TRUE(catalog.resolve("audio:vadpcm:x").ok());
  EXPECT_TRUE(catalog.resolve("image:gif:x").ok());
  EXPECT_TRUE(catalog.resolve("image:tiff:x").ok());
  EXPECT_TRUE(catalog.resolve("image:bmp:x").ok());
  EXPECT_TRUE(catalog.resolve("image:jpeg:x").ok());
  EXPECT_TRUE(catalog.resolve("text:plain:x").ok());
}

TEST(MediaCatalogTest, CachesResolvedObjects) {
  MediaCatalog catalog;
  auto a = catalog.resolve("video:mpeg:same");
  auto b = catalog.resolve("video:mpeg:same");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(MediaCatalogTest, RegistrationOverrides) {
  MediaCatalog catalog;
  auto custom = std::make_shared<media::TextSource>("text:plain:x", "custom");
  catalog.register_source("text:plain:x", custom);
  auto got = catalog.resolve("text:plain:x");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().get(), custom.get());
}

TEST(MediaCatalogTest, RejectsMalformedSources) {
  MediaCatalog catalog;
  EXPECT_FALSE(catalog.resolve("nonsense").ok());
  EXPECT_FALSE(catalog.resolve("video:h264:x").ok());
  EXPECT_FALSE(catalog.resolve("audio:mp3:x").ok());
  EXPECT_FALSE(catalog.resolve("hologram:x:y").ok());
}

// --- DocumentStore -----------------------------------------------------------------

TEST(DocumentStoreTest, AddFindList) {
  DocumentStore store;
  ASSERT_TRUE(store.add("fig2", hermes::fig2_lesson_markup()).ok());
  ASSERT_TRUE(store.add("intro", hermes::intro_lesson_markup()).ok());
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.find("fig2"), nullptr);
  EXPECT_EQ(store.find("fig2")->scenario.streams.size(), 5u);
  EXPECT_EQ(store.find("nothere"), nullptr);
  EXPECT_EQ(store.list(), (std::vector<std::string>{"fig2", "intro"}));
}

TEST(DocumentStoreTest, RejectsBadMarkup) {
  DocumentStore store;
  EXPECT_FALSE(store.add("bad", "<NOT A DOC").ok());
  EXPECT_FALSE(store.add("invalid",
                         "<TITLE> t </TITLE> <VI> SOURCE= v ID= V </VI>")
                   .ok());  // missing timing
  EXPECT_EQ(store.size(), 0u);
}

TEST(DocumentStoreTest, SearchMatchesTitleTextAndName) {
  DocumentStore store;
  for (const auto& entry : hermes::lesson_catalogue(8)) {
    ASSERT_TRUE(store.add(entry.name, entry.markup).ok());
  }
  const auto hits = store.search("networks");
  ASSERT_FALSE(hits.empty());
  for (const auto& hit : hits) {
    EXPECT_NE(hit.find("networks"), std::string::npos);
  }
  // Case-insensitive, and content words match too.
  EXPECT_FALSE(store.search("ALGEBRA").empty());
  EXPECT_EQ(store.search("xyzzy-not-there").size(), 0u);
  // "fundamentals" appears in every lesson's text.
  EXPECT_EQ(store.search("fundamentals").size(), 8u);
}

// --- flow scheduler ------------------------------------------------------------------

core::PresentationScenario fig2_scenario() {
  auto doc = markup::parse(hermes::fig2_lesson_markup());
  EXPECT_TRUE(doc.ok());
  auto scenario = core::extract_scenario(doc.value());
  EXPECT_TRUE(scenario.ok());
  return std::move(scenario.value());
}

TEST(FlowSchedulerTest, PlanMatchesScenarioTiming) {
  MediaCatalog catalog;
  auto plan = FlowScheduler::plan(fig2_scenario(), catalog, 3, 2);
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  const auto& p = plan.value();
  ASSERT_EQ(p.entries.size(), 5u);

  const auto* video = p.find("V");
  ASSERT_NE(video, nullptr);
  EXPECT_TRUE(video->via_rtp);
  EXPECT_EQ(video->send_start, Time::sec(2));   // == STARTIME
  EXPECT_EQ(video->frames, 150);                // 6 s at 25 fps
  EXPECT_NEAR(video->nominal_rate_bps, 900e3, 1.0);
  // floor 3 -> compression factor 3.4.
  EXPECT_NEAR(video->floor_rate_bps, 900e3 / 3.4, 1.0);

  const auto* image = p.find("I1");
  ASSERT_NE(image, nullptr);
  EXPECT_FALSE(image->via_rtp);
  EXPECT_GT(image->object_bytes, 0u);
  EXPECT_EQ(image->frames, 1);
}

TEST(FlowSchedulerTest, FloorTotalIsBelowNominal) {
  MediaCatalog catalog;
  auto plan = FlowScheduler::plan(fig2_scenario(), catalog, 3, 2);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan.value().nominal_total_bps(),
            plan.value().floor_total_bps());
  EXPECT_GT(plan.value().floor_total_bps(), 0.0);
}

TEST(FlowSchedulerTest, FloorsClampToLadder) {
  MediaCatalog catalog;
  auto plan = FlowScheduler::plan(fig2_scenario(), catalog, 99, 99);
  ASSERT_TRUE(plan.ok());
  const auto* video = plan.value().find("V");
  // Deepest rung of the 5-level ladder: factor 5.0.
  EXPECT_NEAR(video->floor_rate_bps, 900e3 / 5.0, 1.0);
}

TEST(FlowSchedulerTest, UnresolvableSourceFailsThePlan) {
  MediaCatalog catalog;
  auto scenario = fig2_scenario();
  scenario.streams[0].source = "hologram:alien:x";
  auto plan = FlowScheduler::plan(scenario, catalog, 3, 2);
  EXPECT_FALSE(plan.ok());
}

// --- users / pricing ----------------------------------------------------------------

TEST(SubscriptionDbTest, SubscribeAndAuthenticate) {
  SubscriptionDb db;
  UserRecord record;
  record.user = "alice";
  record.credential = "pw";
  EXPECT_TRUE(db.subscribe(record));
  EXPECT_FALSE(db.subscribe(record)) << "duplicate user must be rejected";
  EXPECT_EQ(db.authenticate("alice", "pw"), AuthResult::kOk);
  EXPECT_EQ(db.authenticate("alice", "wrong"), AuthResult::kBadCredential);
  EXPECT_EQ(db.authenticate("nobody", "pw"), AuthResult::kUnknownUser);
  EXPECT_FALSE(db.subscribe(UserRecord{}));  // empty user name
}

TEST(SubscriptionDbTest, UsageLogging) {
  SubscriptionDb db;
  UserRecord record;
  record.user = "bob";
  db.subscribe(record);
  db.log_login("bob", Time::sec(10));
  db.log_lesson("bob", "lesson-1");
  db.log_lesson("bob", "lesson-2");
  const auto* got = db.find("bob");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->logins.size(), 1u);
  EXPECT_EQ(got->lessons_viewed,
            (std::vector<std::string>{"lesson-1", "lesson-2"}));
  // Logging against unknown users must not crash.
  db.log_login("ghost", Time::zero());
}

TEST(PricingPolicyTest, DefaultTiers) {
  PricingPolicy policy;
  EXPECT_TRUE(policy.has_tier("basic"));
  EXPECT_TRUE(policy.has_tier("standard"));
  EXPECT_TRUE(policy.has_tier("premium"));
  EXPECT_FALSE(policy.has_tier("gold"));
  EXPECT_GT(policy.tier("premium").priority, policy.tier("basic").priority);
  EXPECT_GT(policy.tier("premium").admission_utilization,
            policy.tier("basic").admission_utilization);
  EXPECT_THROW((void)policy.tier("gold"), std::out_of_range);
}

TEST(PricingLedgerTest, ChargesAccumulate) {
  PricingLedger ledger;
  ledger.charge("alice", 2.5, "connect");
  ledger.charge("alice", 1.0, "viewing");
  ledger.charge("bob", 1.0, "connect");
  EXPECT_DOUBLE_EQ(ledger.total("alice"), 3.5);
  EXPECT_DOUBLE_EQ(ledger.total("bob"), 1.0);
  EXPECT_DOUBLE_EQ(ledger.total("carol"), 0.0);
  EXPECT_EQ(ledger.entries().size(), 3u);
}

// --- admission -----------------------------------------------------------------------

/// A request with the full-quality rung only: admitted or rejected, never
/// degraded (and never queued, as no test below passes waiter hooks).
AdmissionControl::Request one_rung(const std::string& key, double demand_bps,
                                   double tier_utilization) {
  AdmissionControl::Request request;
  request.key = key;
  request.tier_utilization = tier_utilization;
  request.ladder.push_back(AdmissionControl::Candidate{0, demand_bps});
  return request;
}

TEST(AdmissionTest, AdmitsWithinCeiling) {
  AdmissionControl admission({10e6});
  const auto d = admission.evaluate(one_rung("s1", 3e6, 0.8));
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(admission.reserved_bps(), 3e6);
  EXPECT_EQ(admission.admitted_count(), 1);
}

TEST(AdmissionTest, RejectsOverCeiling) {
  AdmissionControl admission({10e6});
  EXPECT_TRUE(admission.evaluate(one_rung("s1", 6e6, 0.8)).admitted);
  const auto d = admission.evaluate(one_rung("s2", 3e6, 0.8));
  EXPECT_FALSE(d.admitted) << "6+3 > 8 Mbps ceiling";
  EXPECT_FALSE(d.reason.empty());
  EXPECT_EQ(admission.rejected_count(), 1);
  EXPECT_DOUBLE_EQ(admission.reserved_bps(), 6e6);
}

TEST(AdmissionTest, HigherTierCeilingAdmitsMore) {
  AdmissionControl admission({10e6});
  EXPECT_TRUE(admission.evaluate(one_rung("s1", 6e6, 0.8)).admitted);
  // The same extra demand is rejected at basic utilization but admitted at
  // premium utilization — "a user who pays more should be serviced".
  EXPECT_FALSE(admission.evaluate(one_rung("s2", 3e6, 0.8)).admitted);
  EXPECT_TRUE(admission.evaluate(one_rung("s2", 3e6, 0.97)).admitted);
}

TEST(AdmissionTest, ReleaseFreesCapacity) {
  AdmissionControl admission({10e6});
  EXPECT_TRUE(admission.evaluate(one_rung("s1", 6e6, 0.8)).admitted);
  admission.release("s1");
  EXPECT_DOUBLE_EQ(admission.reserved_bps(), 0.0);
  EXPECT_TRUE(admission.evaluate(one_rung("s2", 7e6, 0.8)).admitted);
  // Releasing twice or a bogus key is harmless.
  admission.release("s1");
  admission.release("zzz");
}

TEST(AdmissionTest, SameKeyReplacesReservation) {
  AdmissionControl admission({10e6});
  EXPECT_TRUE(admission.evaluate(one_rung("s1", 5e6, 0.8)).admitted);
  // Re-requesting under the same session key (new document) replaces the
  // old reservation rather than stacking.
  EXPECT_TRUE(admission.evaluate(one_rung("s1", 6e6, 0.8)).admitted);
  EXPECT_DOUBLE_EQ(admission.reserved_bps(), 6e6);
}

}  // namespace
}  // namespace hyms
