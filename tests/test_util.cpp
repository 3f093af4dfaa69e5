#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "util/log.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace hyms {
namespace {

// --- Time ---------------------------------------------------------------------

TEST(TimeTest, ConstructionAndAccessors) {
  EXPECT_EQ(Time::usec(1500).us(), 1500);
  EXPECT_EQ(Time::msec(3).us(), 3000);
  EXPECT_EQ(Time::sec(2).us(), 2'000'000);
  EXPECT_EQ(Time::seconds(0.25).us(), 250'000);
  EXPECT_EQ(Time::msec(1500).ms(), 1500);
  EXPECT_DOUBLE_EQ(Time::msec(250).to_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(Time::usec(1500).to_ms(), 1.5);
}

TEST(TimeTest, Arithmetic) {
  const Time a = Time::msec(100);
  const Time b = Time::msec(40);
  EXPECT_EQ((a + b).ms(), 140);
  EXPECT_EQ((a - b).ms(), 60);
  EXPECT_EQ((b * 3).ms(), 120);
  EXPECT_EQ((a / 2).ms(), 50);
  EXPECT_EQ((3 * b).ms(), 120);
  Time c = a;
  c += b;
  EXPECT_EQ(c.ms(), 140);
  c -= a;
  EXPECT_EQ(c.ms(), 40);
}

TEST(TimeTest, ComparisonAndOrdering) {
  EXPECT_LT(Time::msec(1), Time::msec(2));
  EXPECT_EQ(Time::msec(1000), Time::sec(1));
  EXPECT_GE(Time::zero(), Time::zero());
  EXPECT_GT(Time::max(), Time::sec(1'000'000));
}

TEST(TimeTest, AbsAndRatio) {
  EXPECT_EQ((Time::msec(10) - Time::msec(30)).abs().ms(), 20);
  EXPECT_DOUBLE_EQ(Time::msec(250).ratio(Time::msec(500)), 0.5);
}

TEST(TimeTest, StringRendering) {
  EXPECT_EQ(Time::msec(1250).str(), "1.250s");
  EXPECT_EQ(Time::zero().str(), "0.000s");
  EXPECT_EQ(Time::usec(40'000).str(), "0.040s");
}

// --- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  util::Rng a(7);
  util::Rng fork_before = a.fork(3);
  a.next_u64();
  a.next_u64();
  // fork() must not depend on how much the parent has consumed after forking.
  util::Rng c(7);
  util::Rng fork_again = c.fork(3);
  EXPECT_EQ(fork_before.next_u64(), fork_again.next_u64());
}

TEST(RngTest, UniformInRange) {
  util::Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanConverges) {
  util::Rng rng(13);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowStaysInBounds) {
  util::Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.below(7), 7u);
  }
}

TEST(RngTest, RangeInclusive) {
  util::Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  util::Rng rng(23);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, NormalMoments) {
  util::Rng rng(29);
  const int n = 200'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt((sum_sq - n * mean * mean) / (n - 1)), 3.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  util::Rng rng(31);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ParetoAboveScale) {
  util::Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.pareto(2.0, 1.5), 1.5);
  }
}

// --- Sampler ---------------------------------------------------------------------

TEST(SamplerTest, ExactPercentiles) {
  util::Sampler s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SamplerTest, PercentileAfterMoreAdds) {
  util::Sampler s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(20);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
}

TEST(SamplerTest, EmptySamplerIsSafe) {
  const util::Sampler s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// --- strings -----------------------------------------------------------------------

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(util::to_lower("HeLLo"), "hello");
  EXPECT_EQ(util::to_upper("hErMeS"), "HERMES");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(util::trim("  x y  "), "x y");
  EXPECT_EQ(util::trim("\t\n"), "");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("abc"), "abc");
}

TEST(StringsTest, Split) {
  const auto parts = util::split("a:b::c", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(util::split("", ':').size(), 1u);
}

TEST(StringsTest, CaseInsensitiveEquality) {
  EXPECT_TRUE(util::iequals("MPEG", "mpeg"));
  EXPECT_FALSE(util::iequals("MPEG", "mpg"));
  EXPECT_FALSE(util::iequals("a", "ab"));
}

TEST(StringsTest, ContainsCi) {
  EXPECT_TRUE(util::contains_ci("Introduction to Networks", "NETWORK"));
  EXPECT_FALSE(util::contains_ci("algebra", "networks"));
  EXPECT_TRUE(util::contains_ci("anything", ""));
  EXPECT_FALSE(util::contains_ci("ab", "abc"));
}

TEST(StringsTest, JoinAndPad) {
  EXPECT_EQ(util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(util::join({}, ","), "");
  EXPECT_EQ(util::pad("ab", 5), "ab   ");
  EXPECT_EQ(util::pad("abcdef", 3), "abcdef");
}

// --- Result -----------------------------------------------------------------------

TEST(ResultTest, ValueAndError) {
  util::Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  util::Result<int> bad(util::parse_error("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, util::Error::Code::kParse);
  EXPECT_THROW((void)bad.value(), std::logic_error);
}

TEST(ResultTest, TakeMoves) {
  util::Result<std::string> r(std::string("payload"));
  const std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

TEST(StatusTest, OkAndError) {
  util::Status ok;
  EXPECT_TRUE(ok.ok());
  util::Status bad(util::validation_error("invalid"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, util::Error::Code::kValidation);
}

// --- Log ------------------------------------------------------------------------

// Each test restores the logger's process-wide state on the way out.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Log::set_level(util::LogLevel::kInfo);
    util::Log::clear_recent();
  }
  void TearDown() override {
    util::Log::set_sink({});
    util::Log::set_time_source({});
    util::Log::set_capture_capacity(64);
    util::Log::set_level(util::LogLevel::kWarn);
    util::Log::clear_recent();
  }
};

TEST_F(LogTest, SinkReceivesMessagesAboveLevel) {
  std::vector<std::string> got;
  util::Log::set_sink([&got](util::LogLevel, const std::string& msg) {
    got.push_back(msg);
  });
  LOG_DEBUG << "filtered out";
  LOG_INFO << "kept " << 42;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "kept 42");
}

TEST_F(LogTest, SimTimeStampsRecentLines) {
  util::Log::set_sink([](util::LogLevel, const std::string&) {});
  Time now = Time::msec(1250);
  util::Log::set_time_source([&now] { return now; });
  LOG_INFO << "stamped";
  now = Time::msec(2000);
  LOG_WARN << "later";
  const auto lines = util::Log::recent_lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "[1.250s] [INFO] stamped");
  EXPECT_EQ(lines[1], "[2.000s] [WARN] later");
}

TEST_F(LogTest, CaptureRingKeepsLastNLinesOldestFirst) {
  util::Log::set_sink([](util::LogLevel, const std::string&) {});
  util::Log::set_capture_capacity(3);
  for (int i = 0; i < 7; ++i) LOG_INFO << "line " << i;
  const auto lines = util::Log::recent_lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "[INFO] line 4");
  EXPECT_EQ(lines[1], "[INFO] line 5");
  EXPECT_EQ(lines[2], "[INFO] line 6");
}

TEST_F(LogTest, ZeroCapacityDisablesCapture) {
  util::Log::set_sink([](util::LogLevel, const std::string&) {});
  util::Log::set_capture_capacity(0);
  LOG_INFO << "not retained";
  EXPECT_TRUE(util::Log::recent_lines().empty());
}

TEST_F(LogTest, SinkMayReplaceItselfWhileLogging) {
  // Regression: replacing the sink from inside a sink call used to be a
  // re-entrancy hazard. The active sink is invoked on a shared_ptr copy
  // outside the logger's lock, so a handover mid-message must neither
  // deadlock nor lose the in-flight line.
  std::vector<std::string> first;
  std::vector<std::string> second;
  util::Log::set_sink([&](util::LogLevel, const std::string& msg) {
    first.push_back(msg);
    util::Log::set_sink([&second](util::LogLevel, const std::string& m) {
      second.push_back(m);
    });
    LOG_INFO << "from inside the old sink";  // already routed to the new one
  });
  LOG_INFO << "trigger";
  LOG_INFO << "after handover";
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0], "trigger");
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0], "from inside the old sink");
  EXPECT_EQ(second[1], "after handover");
}

}  // namespace
}  // namespace hyms
