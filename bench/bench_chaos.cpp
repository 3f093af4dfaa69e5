// E-robustness: outage-tolerant playout under randomized fault plans. Runs N
// seeded chaos sessions (one Simulator each): a client streams an 8s lecture
// while make_random_plan() throws link flaps, bandwidth collapses, burst
// loss, partitions and server crashes at the deployment. Reports the terminal
// outcome distribution (completed / degraded / aborted), recovery activity,
// and chaos throughput in sessions/sec — the cost of running with the fault
// injector armed.

#include <chrono>
#include <cstdio>
#include <string>

#include "client/browser_session.hpp"
#include "harness.hpp"
#include "hermes/deployment.hpp"
#include "hermes/sample_content.hpp"
#include "net/fault.hpp"
#include "telemetry/telemetry.hpp"

using namespace hyms;

namespace {

struct Totals {
  int completed = 0;
  int degraded = 0;
  int aborted = 0;
  int pending = 0;
  long long recoveries = 0;
  long long degradations = 0;
  long long faults = 0;
  long long crashes = 0;
};

void run_one(std::uint64_t seed, Totals& totals, int index, bool harsh,
             const std::string& trace_file, const std::string& metrics_file,
             telemetry::QoeCollector* fleet) {
  sim::Simulator sim(seed);
  bench::RunTelemetry run_telemetry(sim, trace_file, metrics_file,
                                    fleet != nullptr);
  hermes::Deployment deployment(sim, bench::chaos_deployment_config());
  deployment.server(0).documents().add("lesson", bench::lecture_markup(8));

  client::BrowserSession session(
      deployment.network(), deployment.client_node(0),
      deployment.server(0).control_endpoint(),
      bench::chaos_session_config(harsh));
  session.set_subscription_form(hermes::student_form("chaos", "standard"));
  session.connect("chaos", "secret-chaos");
  session.queue_document("lesson");

  net::FaultInjector injector(deployment.network());
  auto& server = deployment.server(0);
  injector.register_server(
      "hermes-1", [&server] { server.crash(); },
      [&server] { server.restart(); });

  injector.arm(net::make_random_plan(
      seed, bench::chaos_profile(harsh),
      {{deployment.router(), deployment.client_node(0)},
       {deployment.router(), deployment.server_node(0)}},
      {deployment.client_node(0)}, 1));

  const Time horizon = Time::sec(180);
  while (sim.now() < horizon &&
         session.outcome() == telemetry::QoeOutcome::kPending) {
    sim.run_until(sim.now() + Time::sec(1));
  }

  switch (session.outcome()) {
    case telemetry::QoeOutcome::kCompleted: ++totals.completed; break;
    case telemetry::QoeOutcome::kDegraded: ++totals.degraded; break;
    case telemetry::QoeOutcome::kAborted: ++totals.aborted; break;
    case telemetry::QoeOutcome::kPending: ++totals.pending; break;
  }
  totals.recoveries += session.recovery_count();
  totals.degradations += session.floor_degradations();
  totals.faults += injector.stats().injected;
  totals.crashes += server.stats().crashes;

  injector.flush_telemetry();
  telemetry::QoeRecord qoe = run_telemetry.finish(deployment, session);
  // Fold this seed's sealed QoE record into the fleet collector. Each run
  // owns its Simulator, so trace ids restart at 1 every seed — relabel to
  // the (unique) session index before merging.
  if (fleet != nullptr && qoe.trace_id != 0) {
    qoe.trace_id = static_cast<std::uint32_t>(index) + 1;
    qoe.session = "seed/" + std::to_string(seed);
    fleet->add(qoe);
  }
  if (!trace_file.empty()) {
    std::printf("  wrote %s (seed %llu: outcome=%s recoveries=%d)\n",
                trace_file.c_str(), static_cast<unsigned long long>(seed),
                std::string(to_string(session.outcome())).c_str(),
                session.recovery_count());
  }
  if (!metrics_file.empty()) {
    std::printf("  wrote %s (seed %llu)\n", metrics_file.c_str(),
                static_cast<unsigned long long>(seed));
  }
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 200;
  std::uint64_t base_seed = 10'000;
  bool json = false;
  bool harsh = false;        // abnormal-session regime (bench::chaos_*)
  std::string trace_file;    // Perfetto trace of the FIRST session
  std::string metrics_file;  // metrics CSV of the FIRST session
  std::string slo_file;      // fleet QoE/SLO JSON across all seeds
  bench::Cli("bench_chaos")
      .value("--sessions", "N", sessions)
      .value("--seed", "S", base_seed)
      .value("--trace", "FILE", trace_file)
      .value("--metrics", "FILE", metrics_file)
      .value("--slo-json", "FILE", slo_file)
      .toggle("--harsh", harsh)
      .toggle("--json", json)
      .parse(argc, argv);

  Totals totals;
  telemetry::QoeCollector fleet;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < sessions; ++i) {
    run_one(base_seed + static_cast<std::uint64_t>(i), totals, i, harsh,
            i == 0 ? trace_file : "", i == 0 ? metrics_file : "",
            slo_file.empty() ? nullptr : &fleet);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double rate = wall_s > 0 ? sessions / wall_s : 0.0;

  std::printf("bench_chaos: %d sessions in %.2fs (%.1f sessions/s)\n",
              sessions, wall_s, rate);
  std::printf("  outcomes: completed=%d degraded=%d aborted=%d pending=%d\n",
              totals.completed, totals.degraded, totals.aborted,
              totals.pending);
  std::printf("  recoveries=%lld floor_degradations=%lld faults=%lld "
              "crashes=%lld\n",
              totals.recoveries, totals.degradations, totals.faults,
              totals.crashes);
  if (totals.pending > 0) {
    std::printf("  INVARIANT VIOLATION: %d sessions never reached a terminal "
                "outcome\n", totals.pending);
  }

  if (!slo_file.empty()) {
    const auto report = fleet.report();
    std::printf("  slo: compliance=%.4f error_budget_burn=%.2f "
                "startup_p95=%.1fms rebuffer_ratio_p95=%.4f\n",
                report.compliance, report.error_budget_burn,
                report.startup_ms.p95, report.rebuffer_ratio.p95);
    if (bench::write_file(slo_file, fleet.to_json())) {
      std::printf("  wrote %s (%d sessions)\n", slo_file.c_str(),
                  static_cast<int>(fleet.size()));
    }
  }

  if (json) {
    std::string doc = bench::json_context("bench_chaos");
    bench::jsonf(
        doc,
        ",\n    \"threads\": 1,"
        " \"trace\": \"%s\", \"metrics\": \"%s\", \"slo_json\": \"%s\"},\n"
        " \"sessions\": %d, \"wall_s\": %.3f, \"sessions_per_sec\": %.2f,\n"
        " \"completed\": %d, \"degraded\": %d, \"aborted\": %d,"
        " \"pending\": %d,\n"
        " \"recoveries\": %lld, \"floor_degradations\": %lld,"
        " \"faults\": %lld, \"crashes\": %lld}\n",
        trace_file.c_str(), metrics_file.c_str(), slo_file.c_str(),
        sessions, wall_s, rate, totals.completed, totals.degraded,
        totals.aborted, totals.pending, totals.recoveries,
        totals.degradations, totals.faults, totals.crashes);
    if (bench::write_file("BENCH_chaos.json", doc)) {
      std::printf("  wrote BENCH_chaos.json\n");
    }
  }
  return totals.pending > 0 ? 1 : 0;
}
