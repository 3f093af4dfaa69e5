// E-scale: aggregate multi-session throughput. N client-server sessions
// (one Simulator each) are sharded across a worker-thread pool — the
// embarrassingly parallel regime a deployment with many concurrent viewers
// runs in. Sessions pick their document from a Zipf popularity distribution
// (--documents/--zipf), and all shards share one frame-synthesis cache, so
// a popular document's frames are synthesized once and served to every
// session zero-copy. Reports aggregate sessions/sec per thread count, the
// speedup over the single-thread run, the frame-cache hit rate, and a
// determinism cross-check: every session's outcome fingerprint must be
// identical to the sequential run's (the cache must be invisible to
// outcomes).
//
// `--json` mirrors the results into BENCH_multisession.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "media/frame_cache.hpp"
#include "telemetry/qoe.hpp"

using namespace hyms;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ThreadResult {
  int threads = 0;
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
  double speedup = 1.0;
  bool deterministic = true;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic Zipf(s) document assignment: session i draws rank k with
/// P(k) proportional to 1/k^s over n documents, seeded independently of the
/// per-session simulation seeds, so the popularity pattern is reproducible
/// at every thread count.
std::vector<int> zipf_assignment(int sessions, int documents, double s,
                                 std::uint64_t seed) {
  std::vector<double> cdf(static_cast<std::size_t>(documents));
  double total = 0.0;
  for (int k = 0; k < documents; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[static_cast<std::size_t>(k)] = total;
  }
  std::vector<int> doc_of(static_cast<std::size_t>(sessions), 0);
  for (int i = 0; i < sessions; ++i) {
    const std::uint64_t bits =
        splitmix64(seed ^ (0x5A1FULL + static_cast<std::uint64_t>(i)));
    const double u =
        total * (static_cast<double>(bits >> 11) * 0x1.0p-53);
    int k = 0;
    while (k + 1 < documents && cdf[static_cast<std::size_t>(k)] < u) ++k;
    doc_of[static_cast<std::size_t>(i)] = k;
  }
  return doc_of;
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 32;
  int documents = 1;
  double zipf_s = 1.0;
  std::vector<int> thread_counts = {1, 2, 4};
  bool json = false;
  bool cache_enabled = true;
  double run_for_s = 20.0;
  std::string trace_file;    // Perfetto trace of session 0
  std::string metrics_file;  // metrics CSV of session 0
  std::string slo_file;      // fleet QoE/SLO JSON across all sessions
  const auto smoke = [&] {
    sessions = 4;
    run_for_s = 5.0;
    thread_counts = {1, 2};
  };
  bench::Cli("bench_multisession")
      .value("--sessions", "N", sessions)
      .value("--documents", "N", documents)
      .value("--zipf", "S", zipf_s)
      .value("--threads", "1,2,4", thread_counts)
      .toggle("--smoke", smoke)
      // Per-frame synthesis reference path; outcomes identical, wall-clock
      // is what the shared cache buys back.
      .toggle("--no-cache", [&] { cache_enabled = false; })
      .value("--trace", "FILE", trace_file)
      .value("--metrics", "FILE", metrics_file)
      .value("--slo-json", "FILE", slo_file)
      .toggle("--json", json)
      .parse(argc, argv);
  documents = std::max(1, documents);

  bench::warn_if_debug_build("bench_multisession");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("E-scale: %d sessions over %d document%s (Zipf s=%.2f) "
              "sharded across a thread pool (host has %u hardware "
              "thread%s), shared frame cache %s\n\n",
              sessions, documents, documents == 1 ? "" : "s", zipf_s, hw,
              hw == 1 ? "" : "s", cache_enabled ? "on" : "OFF");

  bench::SessionParams base;
  base.seed = 7;
  base.run_for = Time::sec(static_cast<std::int64_t>(run_for_s) + 2);
  base.collect_qoe = !slo_file.empty();

  // One process-wide cache shared by every session on every shard — the
  // tentpole: a Zipf-popular document's frames are synthesized exactly once.
  std::shared_ptr<media::FrameCache> cache;
  if (cache_enabled) {
    cache = std::make_shared<media::FrameCache>(
        media::FrameCache::Config{base.frame_cache_bytes});
    base.frame_cache = cache;
  } else {
    base.frame_cache_bytes = 0;  // per-server caches off too: true reference
  }

  // Distinct documents carry distinct media (the doc tag is in every SOURCE
  // name), so the cache only amortizes genuinely shared content.
  std::vector<std::string> markups;
  markups.reserve(static_cast<std::size_t>(documents));
  for (int d = 0; d < documents; ++d) {
    markups.push_back(bench::lecture_markup(static_cast<int>(run_for_s), 1200,
                                            "d" + std::to_string(d)));
  }
  const std::vector<int> doc_of =
      zipf_assignment(sessions, documents, zipf_s, base.seed);
  auto customize = [&](int i, bench::SessionParams& params) {
    params.markup = markups[static_cast<std::size_t>(doc_of[static_cast<std::size_t>(i)])];
    if (i == 0) {  // session 0 carries the exemplar trace/metrics exports
      params.trace_file = trace_file;
      params.metrics_file = metrics_file;
    }
  };

  // Fold the per-session QoE records into one fleet collector. Sessions are
  // relabeled by index so the export is identical no matter which shard ran
  // them — the SLO byte-identity gate across thread rows.
  auto fleet_slo_json = [&](const std::vector<bench::SessionMetrics>& ms) {
    telemetry::QoeCollector fleet;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (ms[i].qoe.trace_id == 0) continue;
      telemetry::QoeRecord rec = ms[i].qoe;
      rec.trace_id = static_cast<std::uint32_t>(i) + 1;
      rec.session = "session/" + std::to_string(i);
      fleet.add(rec);
    }
    return fleet.to_json();
  };

  // Sequential reference: both the 1-thread timing row and the per-session
  // fingerprints every sharded run must reproduce exactly. The cache is
  // cleared before every timed run so each row reports its own hit rate.
  auto run_cache_stats = [&](auto&& fn) {
    if (cache) cache->clear();
    const media::FrameCache::Stats before =
        cache ? cache->stats() : media::FrameCache::Stats{};
    fn();
    media::FrameCache::Stats delta;
    if (cache) {
      const media::FrameCache::Stats after = cache->stats();
      delta.hits = after.hits - before.hits;
      delta.misses = after.misses - before.misses;
    }
    return delta;
  };

  const auto ref_start = std::chrono::steady_clock::now();
  std::vector<bench::SessionMetrics> reference;
  const auto ref_cache = run_cache_stats([&] {
    reference = bench::run_sessions_sharded(base, sessions, 1, customize);
  });
  const double ref_wall = seconds_since(ref_start);
  std::vector<std::uint64_t> ref_prints;
  ref_prints.reserve(reference.size());
  int failed = 0;
  for (const auto& m : reference) {
    ref_prints.push_back(bench::session_fingerprint(m));
    failed += m.failed ? 1 : 0;
  }
  if (failed > 0) {
    std::fprintf(stderr, "%d/%d sessions failed; aborting\n", failed,
                 sessions);
    return 1;
  }
  std::string ref_slo;
  if (!slo_file.empty()) {
    ref_slo = fleet_slo_json(reference);
    if (bench::write_file(slo_file, ref_slo)) {
      std::printf("wrote %s (%d sessions)\n\n", slo_file.c_str(), sessions);
    }
  }

  std::vector<ThreadResult> results;
  for (const int t : thread_counts) {
    ThreadResult row;
    row.threads = t;
    media::FrameCache::Stats row_cache = ref_cache;
    if (t == 1) {
      row.wall_s = ref_wall;
    } else {
      const auto start = std::chrono::steady_clock::now();
      std::vector<bench::SessionMetrics> metrics;
      row_cache = run_cache_stats([&] {
        metrics = bench::run_sessions_sharded(base, sessions, t, customize);
      });
      row.wall_s = seconds_since(start);
      for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (bench::session_fingerprint(metrics[i]) != ref_prints[i]) {
          row.deterministic = false;
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: session %zu at %d threads "
                       "diverged from the sequential run\n",
                       i, t);
        }
      }
      if (!slo_file.empty() && fleet_slo_json(metrics) != ref_slo) {
        row.deterministic = false;
        std::fprintf(stderr,
                     "SLO DIVERGENCE: fleet QoE export at %d threads is not "
                     "byte-identical to the sequential run\n",
                     t);
      }
    }
    row.cache_hits = row_cache.hits;
    row.cache_misses = row_cache.misses;
    row.cache_hit_rate = row_cache.hit_rate();
    row.sessions_per_sec = row.wall_s > 0 ? sessions / row.wall_s : 0.0;
    row.speedup = row.wall_s > 0 ? ref_wall / row.wall_s : 0.0;
    results.push_back(row);
  }

  bench::table_header({"threads", "wall s", "sessions/s", "speedup",
                       "cache hit%", "deterministic"});
  bool all_deterministic = true;
  for (const auto& row : results) {
    all_deterministic = all_deterministic && row.deterministic;
    bench::table_row({std::to_string(row.threads), bench::fmt(row.wall_s, 3),
                      bench::fmt(row.sessions_per_sec, 2),
                      bench::fmt(row.speedup, 2) + "x",
                      cache_enabled ? bench::fmt_pct(row.cache_hit_rate)
                                    : "off",
                      row.deterministic ? "yes" : "NO"});
  }
  std::printf("\nthe shared frame cache is invisible to outcomes: "
              "per-session results at\nevery thread count are bit-identical "
              "to the sequential run (%s).\nScaling past the host's %u "
              "hardware thread%s is bounded by the hardware,\nnot the "
              "sharding.\n",
              all_deterministic ? "verified" : "VIOLATED", hw,
              hw == 1 ? "" : "s");

  if (json) {
    std::string out = bench::json_context("bench_multisession");
    bench::jsonf(out,
                 ",\n"
                 "    \"sessions\": %d,\n"
                 "    \"documents\": %d,\n"
                 "    \"zipf_s\": %.2f,\n"
                 "    \"session_sim_seconds\": %.1f,\n"
                 "    \"num_cpus\": %u,\n"
                 "    \"link_batching\": true,\n"
                 "    \"frame_cache\": %s,\n"
                 "    \"frame_cache_mb\": %.1f,\n"
                 "    \"trace\": \"%s\",\n"
                 "    \"metrics\": \"%s\",\n"
                 "    \"slo_json\": \"%s\"\n"
                 "  },\n"
                 "  \"deterministic\": %s,\n"
                 "  \"results\": [\n",
                 sessions, documents, zipf_s, run_for_s, hw,
                 cache_enabled ? "true" : "false",
                 base.frame_cache_bytes / (1024.0 * 1024.0),
                 trace_file.c_str(), metrics_file.c_str(), slo_file.c_str(),
                 all_deterministic ? "true" : "false");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& row = results[i];
      bench::jsonf(out,
                   "    {\"threads\": %d, \"wall_s\": %.4f, "
                   "\"sessions_per_sec\": %.3f, \"speedup\": %.3f, "
                   "\"cache_hits\": %lld, \"cache_misses\": %lld, "
                   "\"cache_hit_rate\": %.4f, \"deterministic\": %s}%s\n",
                   row.threads, row.wall_s, row.sessions_per_sec, row.speedup,
                   static_cast<long long>(row.cache_hits),
                   static_cast<long long>(row.cache_misses),
                   row.cache_hit_rate, row.deterministic ? "true" : "false",
                   i + 1 < results.size() ? "," : "");
    }
    out += "  ]\n}\n";
    if (!bench::write_file("BENCH_multisession.json", out)) return 1;
    std::printf("\nwrote BENCH_multisession.json\n");
  }
  return all_deterministic ? 0 : 1;
}
