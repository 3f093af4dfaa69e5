// The bench front end: one flag syntax (`--name VALUE`, bare `--name`
// switches), strict number parsing, exit 2 with a usage line on a bad flag,
// in-order presets; and RunTelemetry: a hub only when an export is wanted,
// and a metrics CSV that carries every server.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "harness.hpp"
#include "hermes/deployment.hpp"
#include "sim/simulator.hpp"

namespace hyms::bench {
namespace {

struct Flags {
  int sessions = 32;
  std::uint64_t seed = 1;
  double zipf = 1.0;
  std::string trace;
  std::vector<int> threads = {1, 2, 4};
  bool json = false;
};

Cli declare(Flags& f) {
  Cli cli("bench_test");
  cli.value("--sessions", "N", f.sessions)
      .value("--seed", "S", f.seed)
      .value("--zipf", "S", f.zipf)
      .value("--trace", "FILE", f.trace)
      .value("--threads", "1,2,4", f.threads)
      .toggle("--smoke", [&f] { f.sessions = 4; })
      .toggle("--json", f.json);
  return cli;
}

void parse(Flags& f, std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  declare(f).parse(static_cast<int>(args.size()), args.data());
}

TEST(BenchCli, ParsesValuesAndSwitches) {
  Flags f;
  parse(f, {"--sessions", "7", "--seed", "18446744073709551615", "--zipf",
            "1.25", "--trace", "t.json", "--threads", "1,3", "--json"});
  EXPECT_EQ(f.sessions, 7);
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_DOUBLE_EQ(f.zipf, 1.25);
  EXPECT_EQ(f.trace, "t.json");
  EXPECT_EQ(f.threads, (std::vector<int>{1, 3}));
  EXPECT_TRUE(f.json);
}

TEST(BenchCli, NoArgumentsKeepDefaults) {
  Flags f;
  parse(f, {});
  EXPECT_EQ(f.sessions, 32);
  EXPECT_EQ(f.threads, (std::vector<int>{1, 2, 4}));
  EXPECT_FALSE(f.json);
}

TEST(BenchCli, PresetAppliesWhereItAppears) {
  Flags explicit_wins;
  parse(explicit_wins, {"--smoke", "--sessions", "9"});
  EXPECT_EQ(explicit_wins.sessions, 9);
  Flags preset_wins;
  parse(preset_wins, {"--sessions", "9", "--smoke"});
  EXPECT_EQ(preset_wins.sessions, 4);
}

TEST(BenchCliDeathTest, UsageLineListsDeclaredFlagsInOrder) {
  Flags f;
  EXPECT_EXIT(parse(f, {"--help"}), testing::ExitedWithCode(2),
              "bench_test: unknown flag '--help'\n"
              "usage: bench_test \\[--sessions N\\] \\[--seed S\\] "
              "\\[--zipf S\\] \\[--trace FILE\\] \\[--threads 1,2,4\\] "
              "\\[--smoke\\] \\[--json\\]\n");
}

TEST(BenchCliDeathTest, BadFlagsPrintUsageAndExit2) {
  const char* usage = "usage: bench_test \\[--sessions N\\]";
  Flags f;
  EXPECT_EXIT(parse(f, {"--sessions", "5x"}), testing::ExitedWithCode(2),
              usage);
  EXPECT_EXIT(parse(f, {"--seed", "-1"}), testing::ExitedWithCode(2), usage);
  EXPECT_EXIT(parse(f, {"--threads", "1,,2"}), testing::ExitedWithCode(2),
              usage);
  EXPECT_EXIT(parse(f, {"--json", "--sessions"}), testing::ExitedWithCode(2),
              usage);
  EXPECT_EXIT(parse(f, {"--trace", "--json"}), testing::ExitedWithCode(2),
              usage);
  EXPECT_EXIT(parse(f, {"--sessions=4"}), testing::ExitedWithCode(2), usage);
  EXPECT_EXIT(parse(f, {"--unbatched"}), testing::ExitedWithCode(2), usage);
  EXPECT_EXIT(parse(f, {"stray"}), testing::ExitedWithCode(2), usage);
}

TEST(RunTelemetry, InstallsAHubOnlyWhenAnExportIsWanted) {
  sim::Simulator bare(1);
  RunTelemetry off(bare, "", "", false);
  EXPECT_EQ(bare.telemetry(), nullptr);

  sim::Simulator qoe_only(1);
  RunTelemetry qoe(qoe_only, "", "", true);
  ASSERT_NE(qoe_only.telemetry(), nullptr);
  EXPECT_FALSE(qoe_only.telemetry()->tracing());
}

TEST(RunTelemetry, FinishFlushesEveryServerIntoTheMetricsCsv) {
  const std::string csv_path = testing::TempDir() + "bench_cli_metrics.csv";
  sim::Simulator sim(1);
  RunTelemetry run_telemetry(sim, "", csv_path, false);
  hermes::Deployment::Config config;
  config.server_count = 2;
  hermes::Deployment deployment(sim, config);
  client::BrowserSession session(deployment.network(),
                                 deployment.client_node(0),
                                 deployment.server(0).control_endpoint(), {});
  session.connect("bench", "secret-bench");
  sim.run_until(Time::sec(1));
  EXPECT_NE(run_telemetry.finish(deployment, session).trace_id, 0u);

  std::ifstream in(csv_path);
  const std::string csv((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(csv.find("\nserver/admission/admitted,"), std::string::npos);
  EXPECT_NE(csv.find("\nserver/hermes-1/plan_cache_hits,"), std::string::npos);
  EXPECT_NE(csv.find("\nserver/hermes-2/plan_cache_hits,"), std::string::npos);
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace hyms::bench
