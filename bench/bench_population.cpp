// Shared-world population benchmark: the FULL emulator stack — real
// BrowserSessions, the §5 protocol, RTP/TCP, admission control, the QoS
// feedback loop — driven as one session population (Poisson/diurnal
// arrivals, a flash crowd, Zipf document popularity, abandonment and churn)
// against a server fleet sharing one FrameCache. The same world runs on the
// sequential kernel and then partitioned on the conservative parallel
// executor at several thread counts; every parallel run is checked
// byte-identical (fingerprint + canonical event log + QoE/SLO export) to the
// sequential kernel BEFORE its wall time is reported.
//
// --overload adds two more scenario sweeps: "overload" engages the
// overload-control pipeline (admission wait queue + pressure-aware
// degradation ladder + client retry-with-backoff) and prints how many of
// the base scenario's admission-rejected fates now finish; "chaos" adds an
// active fault plan on top (server crash mid-flash-crowd with the wait
// queue populated, backbone link flap). The byte-identity gate applies to
// every cell of every sweep, so fault injection on the partitioned
// population is regression-checked here.
//
// --json writes BENCH_population.json, guarded by
// tools/check_bench_regression.py (events_per_sec per scenario/partitions/
// threads cell; a non-deterministic fresh run is a hard failure).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "hermes/population.hpp"
#include "util/time.hpp"

namespace {

struct Row {
  const char* scenario;
  std::uint32_t partitions;
  int threads;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double sessions_per_sec = 0.0;
  double speedup = 1.0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  bool deterministic = true;
};

double run_once(const hyms::hermes::PopulationConfig& cfg, int threads,
                hyms::hermes::PopulationResult& out) {
  const auto start = std::chrono::steady_clock::now();
  out = hyms::hermes::run_population(cfg, threads);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void print_fates(const char* scenario, const hyms::hermes::PopulationResult& r) {
  std::printf("[%s] fates: %lld completed, %lld degraded, %lld churned, "
              "%lld abandoned, %lld rejected, %lld failed, %lld unfinished; "
              "%lld admission rejections; cache %lld hits / %lld misses\n",
              scenario, static_cast<long long>(r.completed),
              static_cast<long long>(r.degraded),
              static_cast<long long>(r.churned),
              static_cast<long long>(r.abandoned),
              static_cast<long long>(r.rejected),
              static_cast<long long>(r.failed),
              static_cast<long long>(r.unfinished),
              static_cast<long long>(r.admission_rejections),
              static_cast<long long>(r.cache_hits),
              static_cast<long long>(r.cache_misses));
  if (r.queued_total + r.admission_retries + r.faults_injected > 0) {
    std::printf("[%s] overload: %lld queued (%lld granted, %lld timed out), "
                "%lld degraded grants, %lld client retries, "
                "%lld faults injected\n",
                scenario, static_cast<long long>(r.queued_total),
                static_cast<long long>(r.queue_grants),
                static_cast<long long>(r.queue_timeouts),
                static_cast<long long>(r.degraded_grants),
                static_cast<long long>(r.admission_retries),
                static_cast<long long>(r.faults_injected));
  }
  std::printf("\n");
}

}  // namespace

// run_population rejects a world it cannot build (--sessions 0,
// --partitions 0, ...) with std::invalid_argument; that is a bad flag too.
int main(int argc, char** argv) try {
  using hyms::Time;
  namespace bench = hyms::bench;

  hyms::hermes::PopulationConfig cfg;
  cfg.sessions = 1000;
  cfg.servers = 4;
  cfg.documents = 12;
  // Provision each server for a few dozen concurrent presentations (the
  // default 10 Mbps admission estimate would bounce nearly the whole
  // population); the flash crowd still drives rejections at the peak.
  cfg.server_template.admission.capacity_bps = 60e6;
  std::uint32_t partitions = 2;
  bool json = false;
  bool overload = false;
  std::string slo_file;
  const auto smoke = [&cfg] {
    cfg.sessions = 48;
    cfg.servers = 2;
    cfg.documents = 6;
    cfg.arrival_window = Time::sec(6);
    cfg.run_for = Time::sec(16);
    // Tight fleet (~4 full-quality viewers per server): even 48 sessions
    // overload admission, so the --overload smoke leg exercises the wait
    // queue and retry machinery rather than sailing through.
    cfg.server_template.admission.capacity_bps = 6e6;
  };
  bench::Cli("bench_population")
      .value("--sessions", "N", cfg.sessions)
      .value("--servers", "N", cfg.servers)
      .value("--documents", "N", cfg.documents)
      .value("--partitions", "P", partitions)
      .value("--seed", "S", cfg.seed)
      .value("--slo-json", "FILE", slo_file)
      .toggle("--smoke", smoke)
      .toggle("--overload", overload)
      .toggle("--json", json)
      .parse(argc, argv);
  // run_population sees --partitions only at the first partitioned run;
  // reject it before the sequential leg runs and prints.
  if (partitions < 1) {
    throw std::invalid_argument("population: partitions >= 1");
  }
  bench::warn_if_debug_build("bench_population");

  const unsigned hw = bench::hardware_threads();
  std::printf("bench_population: %d sessions, %d servers, %d documents, "
              "partitions=%u%s (host has %u hardware thread%s)\n\n",
              cfg.sessions, cfg.servers, cfg.documents, partitions,
              overload ? ", overload+chaos sweep on" : "", hw,
              hw == 1 ? "" : "s");

  std::vector<std::pair<const char*, hyms::hermes::PopulationConfig>>
      scenarios;
  scenarios.emplace_back("base", cfg);
  if (overload) {
    // Overload control trades latency for goodput: sessions the base
    // scenario rejected at the peak are served as the backlog drains, so
    // the horizon must extend past the drain or they count as unfinished.
    hyms::hermes::PopulationConfig ocfg = cfg;
    ocfg.overload_control = true;
    ocfg.run_for = ocfg.run_for + Time::sec(15);
    scenarios.emplace_back("overload", ocfg);
    // Chaos rides on top of the overload posture: a server crash mid-flash-
    // crowd (wait queue populated) and a backbone link flap, on the
    // partitioned population, still byte-identical at every thread count.
    hyms::hermes::PopulationConfig ccfg = ocfg;
    ccfg.chaos = true;
    scenarios.emplace_back("chaos", ccfg);
  }

  std::vector<Row> rows;
  bool all_deterministic = true;
  hyms::hermes::PopulationResult base_seq;
  Time lookahead = Time::max();
  std::uint64_t seq_events = 0;

  for (const auto& [scenario, scfg] : scenarios) {
    // The reference: the plain single-calendar kernel.
    hyms::hermes::PopulationConfig seq_cfg = scfg;
    seq_cfg.partitions = 1;
    hyms::hermes::PopulationResult seq;
    const double seq_wall = run_once(seq_cfg, 1, seq);
    print_fates(scenario, seq);
    if (rows.empty()) {
      base_seq = seq;
      seq_events = seq.events_executed;
    } else if (std::string_view(scenario) == "overload") {
      const long long converted = (seq.completed + seq.degraded) -
                                  (base_seq.completed + base_seq.degraded);
      std::printf("[overload] conversion: %lld of %lld base admission-"
                  "rejected fates now finish (target: >= %lld)\n\n",
                  converted, static_cast<long long>(base_seq.rejected),
                  static_cast<long long>((base_seq.rejected + 1) / 2));
    }

    if (!slo_file.empty()) {
      // One SLO file per scenario so the overload recipe can diff the
      // with-queue and without-queue fleets: "pop.json" for the base
      // scenario, "pop.overload.json" / "pop.chaos.json" for the sweeps.
      std::string path = slo_file;
      if (!rows.empty()) {
        const auto dot = path.rfind(".json");
        const std::string suffix = std::string(".") + scenario + ".json";
        if (dot != std::string::npos && dot == path.size() - 5) {
          path.replace(dot, 5, suffix);
        } else {
          path += suffix;
        }
      }
      if (bench::write_file(path, seq.qoe_json)) {
        std::printf("wrote %s\n", path.c_str());
      }
    }

    rows.push_back(Row{scenario, 1, 1, seq_wall,
                       static_cast<double>(seq.events_executed) / seq_wall,
                       static_cast<double>(scfg.sessions) / seq_wall, 1.0, 0,
                       0, true});

    hyms::hermes::PopulationConfig par_cfg = scfg;
    par_cfg.partitions = partitions;
    for (const int threads : {1, 2, 4}) {
      hyms::hermes::PopulationResult par;
      const double wall = run_once(par_cfg, threads, par);
      lookahead = par.lookahead;
      Row row{scenario, partitions, threads, wall,
              static_cast<double>(par.events_executed) / wall,
              static_cast<double>(scfg.sessions) / wall, seq_wall / wall,
              par.windows, par.messages,
              par.fingerprint == seq.fingerprint &&
                  par.events_csv == seq.events_csv &&
                  par.qoe_json == seq.qoe_json};
      if (par.qoe_json != seq.qoe_json) {
        std::fprintf(stderr,
                     "SLO DIVERGENCE: [%s] QoE export at %u partitions / %d "
                     "threads is not byte-identical to the sequential "
                     "kernel\n",
                     scenario, partitions, threads);
      }
      all_deterministic = all_deterministic && row.deterministic;
      rows.push_back(row);
    }
  }

  bench::table_header({"scenario", "partitions", "threads", "wall s",
                       "events/s", "sessions/s", "speedup", "windows",
                       "messages", "identical"});
  for (const Row& row : rows) {
    bench::table_row({row.scenario, std::to_string(row.partitions),
                      std::to_string(row.threads), bench::fmt(row.wall_s, 3),
                      bench::fmt(row.events_per_sec, 0),
                      bench::fmt(row.sessions_per_sec, 1),
                      bench::fmt(row.speedup, 2), std::to_string(row.windows),
                      std::to_string(row.messages),
                      row.deterministic ? "yes" : "NO"});
  }
  std::printf("\n%u partitions, lookahead %lld us, %llu events; parallel runs "
              "byte-identical to the sequential kernel: %s\n",
              partitions, static_cast<long long>(lookahead.us()),
              static_cast<unsigned long long>(seq_events),
              all_deterministic ? "verified" : "VIOLATED");
  if (hw == 1) {
    std::printf("note: 1-CPU host -- thread speedups here measure overhead, "
                "not scaling.\n");
  }

  if (json) {
    std::string out = bench::json_context("bench_population");
    bench::jsonf(out,
                 ",\n"
                 "    \"sessions\": %d,\n"
                 "    \"servers\": %d,\n"
                 "    \"documents\": %d,\n"
                 "    \"partitions\": %u,\n"
                 "    \"seed\": %llu,\n"
                 "    \"lookahead_us\": %lld,\n"
                 "    \"events\": %llu,\n"
                 "    \"completed\": %lld,\n"
                 "    \"degraded\": %lld,\n"
                 "    \"churned\": %lld,\n"
                 "    \"abandoned\": %lld,\n"
                 "    \"rejected\": %lld,\n"
                 "    \"failed\": %lld,\n"
                 "    \"unfinished\": %lld,\n"
                 "    \"admission_rejections\": %lld,\n"
                 "    \"overload_sweep\": %s\n"
                 "  },\n"
                 "  \"deterministic\": %s,\n"
                 "  \"results\": [\n",
                 cfg.sessions, cfg.servers, cfg.documents, partitions,
                 static_cast<unsigned long long>(cfg.seed),
                 static_cast<long long>(lookahead.us()),
                 static_cast<unsigned long long>(seq_events),
                 static_cast<long long>(base_seq.completed),
                 static_cast<long long>(base_seq.degraded),
                 static_cast<long long>(base_seq.churned),
                 static_cast<long long>(base_seq.abandoned),
                 static_cast<long long>(base_seq.rejected),
                 static_cast<long long>(base_seq.failed),
                 static_cast<long long>(base_seq.unfinished),
                 static_cast<long long>(base_seq.admission_rejections),
                 overload ? "true" : "false",
                 all_deterministic ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      bench::jsonf(out,
                   "    {\"scenario\": \"%s\", \"partitions\": %u, "
                   "\"threads\": %d, "
                   "\"wall_s\": %.4f, \"events_per_sec\": %.1f, "
                   "\"sessions_per_sec\": %.2f, \"speedup\": %.3f, "
                   "\"windows\": %llu, \"messages\": %llu, "
                   "\"deterministic\": %s}%s\n",
                   row.scenario, row.partitions, row.threads, row.wall_s,
                   row.events_per_sec, row.sessions_per_sec, row.speedup,
                   static_cast<unsigned long long>(row.windows),
                   static_cast<unsigned long long>(row.messages),
                   row.deterministic ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    out += "  ]\n}\n";
    if (!bench::write_file("BENCH_population.json", out)) return 1;
    std::printf("wrote BENCH_population.json\n");
  }
  return all_deterministic ? 0 : 1;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "bench_population: %s\n", e.what());
  return 2;
}
