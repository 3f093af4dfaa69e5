// E-robustness: outage-tolerant playout under randomized fault plans. Runs N
// seeded chaos sessions (one Simulator each): a client streams an 8s lecture
// while make_random_plan() throws link flaps, bandwidth collapses, burst
// loss, partitions and server crashes at the deployment. Reports the terminal
// outcome distribution (completed / degraded / aborted), recovery activity,
// and chaos throughput in sessions/sec — the cost of running with the fault
// injector armed.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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
             const char* trace_file = nullptr,
             const char* metrics_file = nullptr,
             telemetry::QoeCollector* fleet = nullptr) {
  sim::Simulator sim(seed);
  telemetry::Hub hub;
  const bool telemetry_on =
      trace_file != nullptr || metrics_file != nullptr || fleet != nullptr;
  if (telemetry_on) {
    hub.set_tracing(trace_file != nullptr);
    sim.set_telemetry(&hub);  // before the deployment interns its tracks
  }
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
         session.outcome() == client::SessionOutcome::kPending) {
    sim.run_until(sim.now() + Time::sec(1));
  }

  switch (session.outcome()) {
    case client::SessionOutcome::kCompleted: ++totals.completed; break;
    case client::SessionOutcome::kDegraded: ++totals.degraded; break;
    case client::SessionOutcome::kAborted: ++totals.aborted; break;
    case client::SessionOutcome::kPending: ++totals.pending; break;
  }
  totals.recoveries += session.recovery_count();
  totals.degradations += session.floor_degradations();
  totals.faults += injector.stats().injected;
  totals.crashes += server.stats().crashes;

  if (telemetry_on) {
    sim.flush_telemetry();
    deployment.network().flush_telemetry();
    injector.flush_telemetry();
    if (session.presentation() != nullptr) {
      session.presentation()->flush_telemetry();
    }
    // Fold this seed's sealed QoE record into the fleet collector. Each
    // run owns its Simulator, so trace ids restart at 1 every seed — relabel
    // to the (unique) session index before merging.
    session.finalize_qoe();
    if (fleet != nullptr) {
      if (const auto* rec = hub.qoe().find(session.trace_id())) {
        telemetry::QoeRecord fleet_rec = *rec;
        fleet_rec.trace_id = static_cast<std::uint32_t>(index) + 1;
        fleet_rec.session = "seed/" + std::to_string(seed);
        fleet->add(fleet_rec);
      }
    }
    if (trace_file != nullptr) {
      hub.write_trace_json(trace_file);
      std::printf("  wrote %s (seed %llu: outcome=%s recoveries=%d)\n",
                  trace_file, static_cast<unsigned long long>(seed),
                  to_string(session.outcome()).c_str(),
                  session.recovery_count());
    }
    if (metrics_file != nullptr) {
      hub.write_metrics_csv(metrics_file);
      std::printf("  wrote %s (seed %llu)\n", metrics_file,
                  static_cast<unsigned long long>(seed));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 200;
  std::uint64_t base_seed = 10'000;
  bool json = false;
  bool harsh = false;  // abnormal-session regime (bench::chaos_*)
  const char* trace_file = nullptr;    // Perfetto trace of the FIRST session
  const char* metrics_file = nullptr;  // metrics CSV of the FIRST session
  const char* slo_file = nullptr;      // fleet QoE/SLO JSON across all seeds
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      base_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (std::strcmp(argv[i], "--slo-json") == 0 && i + 1 < argc) {
      slo_file = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--harsh") == 0) {
      harsh = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions N] [--seed S] [--trace FILE] "
                   "[--metrics FILE] [--slo-json FILE] [--harsh] [--json]\n",
                   argv[0]);
      return 2;
    }
  }

  Totals totals;
  telemetry::QoeCollector fleet;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < sessions; ++i) {
    run_one(base_seed + static_cast<std::uint64_t>(i), totals, i, harsh,
            i == 0 ? trace_file : nullptr, i == 0 ? metrics_file : nullptr,
            slo_file != nullptr ? &fleet : nullptr);
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

  if (slo_file != nullptr) {
    const auto report = fleet.report();
    std::printf("  slo: compliance=%.4f error_budget_burn=%.2f "
                "startup_p95=%.1fms rebuffer_ratio_p95=%.4f\n",
                report.compliance, report.error_budget_burn,
                report.startup_ms.p95, report.rebuffer_ratio.p95);
    const std::string slo_json = fleet.to_json();
    if (FILE* f = std::fopen(slo_file, "w")) {
      std::fwrite(slo_json.data(), 1, slo_json.size(), f);
      std::fclose(f);
      std::printf("  wrote %s (%d sessions)\n", slo_file,
                  static_cast<int>(fleet.size()));
    }
  }

  if (json) {
    FILE* f = std::fopen("BENCH_chaos.json", "w");
    if (f != nullptr) {
      std::fprintf(
          f,
          "{\"context\": {\"benchmark\": \"bench_chaos\","
          " \"host_name\": \"%s\", \"hardware_concurrency\": %u,"
          " \"threads\": 1, \"assertions\": \"%s\","
          " \"trace\": \"%s\", \"metrics\": \"%s\", \"slo_json\": \"%s\"},\n"
          " \"sessions\": %d, \"wall_s\": %.3f, \"sessions_per_sec\": %.2f,\n"
          " \"completed\": %d, \"degraded\": %d, \"aborted\": %d,"
          " \"pending\": %d,\n"
          " \"recoveries\": %lld, \"floor_degradations\": %lld,"
          " \"faults\": %lld, \"crashes\": %lld}\n",
          bench::host_name().c_str(), bench::hardware_threads(),
          bench::built_with_assertions() ? "enabled" : "disabled",
          trace_file != nullptr ? trace_file : "",
          metrics_file != nullptr ? metrics_file : "",
          slo_file != nullptr ? slo_file : "",
          sessions, wall_s, rate, totals.completed, totals.degraded,
          totals.aborted, totals.pending, totals.recoveries,
          totals.degradations, totals.faults, totals.crashes);
      std::fclose(f);
      std::printf("  wrote BENCH_chaos.json\n");
    }
  }
  return totals.pending > 0 ? 1 : 0;
}
