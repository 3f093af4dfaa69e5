// hyms_bench: the repository benchmark. It drives hermes::run_population —
// the full emulator stack as a 1000-session population against a 4-server
// fleet — on four workloads, checks the outputs, and prints every metric by
// name with its unit and the clock it was read from:
//
//   host  the simulator's own cost on this machine (wall, CPU, memory),
//         times scaled to the reference host's memory speed (SpeedProbe);
//   sim   the modelled service, exact for a given seed.
//
// The load is open loop in simulated time: the arrival plan is drawn from
// the seed before the run and does not slow down when the host does. On the
// host side each repetition is a batch job of 1000 sessions, reported as
// sessions per second of wall time.
//
//   hyms_bench --workload <name|all> [--seed S] [--reps N | --seconds T]
//              [--trace] [--json FILE]
//
// --seconds runs repetitions until the next one would end past T seconds
// (at least one). --trace pairs every repetition with a second one under the
// SIGPROF sampler and adds the per-module CPU shares. --json appends one
// JSON object per workload to FILE (truncated first). `all` runs each
// workload in a child process of its own, so peak memory is per workload.
// The exit code is non-zero when any output check failed.

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hermes/population.hpp"
#include "media/frame_cache.hpp"
#include "sampler.hpp"
#include "util/time.hpp"

namespace {

using hyms::Time;
using hyms::hermes::PopulationConfig;
using hyms::hermes::PopulationResult;
using hyms_bench::kModules;
using hyms_bench::Sampler;

constexpr int kSessions = 1000;
constexpr int kSetupCallsPerRep = 3;
constexpr std::size_t kTopLeaves = 25;
constexpr std::size_t kSampleSlots = std::size_t{1} << 14;

struct Workload {
  std::string_view name;
  PopulationConfig cfg;
  int threads = 1;
};

// Every field the workloads depend on is pinned here, so a change of a
// PopulationConfig default does not silently change the benchmark.
std::vector<Workload> make_workloads(std::uint64_t seed) {
  PopulationConfig crowd;
  crowd.sessions = kSessions;
  crowd.servers = 4;
  crowd.server_template.admission.capacity_bps = 60e6;
  crowd.documents = 12;
  crowd.zipf_s = 1.1;
  crowd.seed = seed;
  crowd.partitions = 1;
  crowd.run_for = Time::sec(30);
  crowd.arrival_window = Time::sec(12);
  crowd.diurnal_depth = 0.6;
  crowd.flash_fraction = 0.15;
  crowd.flash_at = Time::sec(6);
  crowd.flash_width = Time::msec(500);
  crowd.patience = Time::sec(8);
  crowd.churn_fraction = 0.3;
  crowd.doc_seconds = 6;
  crowd.video_kbps = 700;
  crowd.telemetry = true;
  crowd.frame_cache_bytes = 64ull << 20;

  // The same crowd with the overload plane (wait queue, degradation ladder,
  // client retry) and the fault script (server-0 crash, link flap); the
  // longer horizon lets the backlog drain.
  PopulationConfig chaos = crowd;
  chaos.overload_control = true;
  chaos.chaos = true;
  chaos.run_for = Time::sec(45);

  // A wide, flat catalogue and no crowd: the frame working set outgrows the
  // 64 MiB FrameCache, so synthesis and eviction dominate.
  PopulationConfig cold = crowd;
  cold.documents = 400;
  cold.zipf_s = 0.5;
  cold.flash_fraction = 0.0;

  // The crowd on the conservative parallel executor: 4 partitions advanced
  // by 2 worker threads plus the coordinator, within a 4-core host.
  PopulationConfig parted = crowd;
  parted.partitions = 4;

  return {{"flash_crowd", crowd, 1},
          {"overload_chaos", chaos, 1},
          {"catalog_cold", cold, 1},
          {"flash_crowd_p4t2", parted, 2}};
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int reps = 5;
  double seconds = 0.0;
  bool trace = false;
  std::string json;
};

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Puts host times on one scale. The reference host shares its memory
/// system with other tenants, and within minutes their load slowed the
/// simulator by up to half, in CPU time as much as in wall time: enough to
/// swamp any change under test. A chase of dependent loads through a 16 MiB
/// random cycle measures how slow memory is at that moment. It runs before
/// and after every repetition, and the repetition's host times are
/// multiplied by (kReferenceS / mean of the two)^2, so they read as at one
/// fixed memory speed. The square is measured: over 40 runs there, the log
/// of a run's time moved 1.5 to 2.2 times as far as the log of the probe's
/// (correlation 0.82 to 0.98). The probe is benchmark code, so a change to
/// src/ cannot move it.
class SpeedProbe {
 public:
  /// The probe time host times are scaled to; a typical reading on the
  /// reference host.
  static constexpr double kReferenceS = 0.15;

  /// The factor for host times measured between probes `a` and `b`.
  static double scale(double a, double b) {
    const double r = kReferenceS / (0.5 * (a + b));
    return r * r;
  }

  SpeedProbe() : next_(kEntries) {
    // Sattolo's shuffle: a single cycle through every entry, so the chase
    // never settles into a short loop the caches could hold.
    std::iota(next_.begin(), next_.end(), 0u);
    std::mt19937_64 rng(0x5eed);
    for (std::size_t i = kEntries - 1; i > 0; --i) {
      std::uniform_int_distribution<std::size_t> pick(0, i - 1);
      std::swap(next_[i], next_[pick(rng)]);
    }
  }

  /// Seconds for kSteps dependent loads.
  double measure() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < kSteps; ++i) at = next_[at];
    end_ = at;
    return seconds_since(t0);
  }

 private:
  static constexpr std::size_t kEntries = std::size_t{1} << 22;
  static constexpr int kSteps = 1 << 20;
  std::vector<std::uint32_t> next_;
  volatile std::uint32_t end_ = 0;  // keeps the chase from being elided
};

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles by linear interpolation on the sorted sample.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  s.median = at(0.5);
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  return s;
}

/// One reading; `n` is the number of samples behind it.
Summary exact(double value, std::size_t n = 1) {
  return {value, value, value, n};
}

struct Metric {
  std::string name;
  std::string unit;
  const char* clock;  // "host" or "sim"
  Summary s;
};

/// The number that follows the first `key` at or after `from` in a
/// hyms-slo-v1 export; NaN when the key is missing.
double number_after(const std::string& json, std::string_view key,
                    std::size_t from = 0) {
  const std::size_t at = json.find(key, from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

struct Rep {
  PopulationResult result;
  hyms::media::FrameCache::Stats cache;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double scale = 1.0;  // SpeedProbe factor for this repetition's host times
};

Rep run_rep(const PopulationConfig& base, int threads, Sampler* sampler) {
  PopulationConfig cfg = base;
  // A fresh cache per repetition: every repetition does the same work, and
  // the cache counters belong to one run.
  hyms::media::FrameCache::Config cc;
  cc.byte_budget = cfg.frame_cache_bytes;
  auto cache = std::make_shared<hyms::media::FrameCache>(cc);
  cfg.frame_cache = cache;
  Rep rep;
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  if (sampler != nullptr) sampler->start();
  rep.result = hyms::hermes::run_population(cfg, threads);
  if (sampler != nullptr) sampler->stop();
  rep.wall_s = seconds_since(t0);
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.cache = cache->stats();
  return rep;
}

/// The exports in which two runs of one simulated world differ.
std::string differences(const PopulationResult& a, const PopulationResult& b) {
  std::string d;
  const auto add = [&d](bool same, const char* what) {
    if (same) return;
    if (!d.empty()) d += ", ";
    d += what;
  };
  add(a.fingerprint == b.fingerprint, "fingerprint");
  add(a.events_csv == b.events_csv, "events_csv");
  add(a.qoe_json == b.qoe_json, "qoe_json");
  return d;
}

/// Output checks. An operation is one population run; it fails when any of
/// its checks fails.
class Checker {
 public:
  void run(const PopulationResult& r, const PopulationResult* first) {
    std::vector<std::string> failed;
    const std::int64_t fates = r.completed + r.degraded + r.churned +
                               r.abandoned + r.rejected + r.failed +
                               r.unfinished;
    if (fates != kSessions) failed.push_back("fate sum != sessions");
    if (number_after(r.qoe_json, "\"sessions\": ") != kSessions) {
      failed.push_back("qoe_json session count != sessions");
    }
    if (first != nullptr) {
      const std::string d = differences(r, *first);
      if (!d.empty()) failed.push_back("repetition differs in " + d);
    }
    record(failed);
  }

  /// The parallel executor's contract: the thread count never shows.
  void same_at_one_thread(const PopulationResult& r,
                          const PopulationResult& one_thread) {
    const std::string d = differences(r, one_thread);
    record(d.empty() ? std::vector<std::string>{}
                     : std::vector<std::string>{
                           "1 worker thread differs in " + d});
  }

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  void record(const std::vector<std::string>& failed) {
    ++attempted_;
    if (failed.empty()) return;
    ++failed_;
    failures_.insert(failures_.end(), failed.begin(), failed.end());
  }

  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
};

double frac(std::int64_t count) {
  return static_cast<double>(count) / static_cast<double>(kSessions);
}

/// A start-up delay percentile ("p50", "p95") from the fleet block of a
/// hyms-slo-v1 export, with the number of sessions that started.
Summary startup_ms(const std::string& qoe, const std::string& percentile) {
  const std::size_t at = qoe.find("\"startup_ms\": {");
  const double started = number_after(qoe, "\"samples\": ", at);
  return exact(number_after(qoe, "\"" + percentile + "\": ", at),
               std::isfinite(started) ? static_cast<std::size_t>(started) : 0);
}

std::vector<double> walls(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& rep : reps) v.push_back(rep.wall_s);
  return v;
}

std::vector<Metric> end_to_end(const PopulationResult& r,
                               const std::vector<Rep>& reps,
                               const std::vector<double>& setup,
                               double peak_rss_mb) {
  std::vector<double> rate;
  std::vector<double> cpu;
  for (const Rep& rep : reps) {
    rate.push_back(kSessions / (rep.wall_s * rep.scale));
    cpu.push_back(1e3 * rep.cpu_s * rep.scale / kSessions);
  }
  return {
      {"sessions_per_s", "sessions/s", "host", summarize(rate)},
      {"cpu_ms_per_session", "ms", "host", summarize(cpu)},
      {"peak_rss_mb", "MiB", "host", exact(peak_rss_mb)},
      {"setup_s", "s", "host", summarize(setup)},
      {"startup_p50_ms", "ms", "sim", startup_ms(r.qoe_json, "p50")},
      {"slo_compliance", "fraction", "sim",
       exact(number_after(r.qoe_json, "\"compliance\": "), kSessions)},
      {"served_frac", "fraction", "sim",
       exact(frac(r.completed + r.degraded), kSessions)},
  };
}

std::vector<Metric> per_layer(int threads, const Rep& first,
                              const std::vector<Rep>& reps) {
  const PopulationResult& r = first.result;
  const auto count = [](auto v) { return exact(static_cast<double>(v)); };
  std::vector<double> events_rate;
  std::vector<double> busy;
  for (const Rep& rep : reps) {
    events_rate.push_back(static_cast<double>(r.events_executed) /
                          (rep.wall_s * rep.scale));
    busy.push_back(rep.cpu_s / (threads * rep.wall_s));
  }
  const auto events = static_cast<double>(r.events_executed);
  const hyms::media::FrameCache::Stats& c = first.cache;
  return {
      {"sim.events", "count", "sim", count(r.events_executed)},
      {"sim.events_per_s", "1/s", "host", summarize(events_rate)},
      {"sim.windows", "count", "sim", count(r.windows)},
      {"sim.messages", "count", "sim", count(r.messages)},
      {"sim.messages_per_event", "ratio", "sim",
       count(static_cast<double>(r.messages) / events)},
      {"sim.worker_busy_share", "fraction", "host", summarize(busy)},
      {"media.cache_hits", "count", "sim", count(c.hits)},
      {"media.cache_misses", "count", "sim", count(c.misses)},
      {"media.cache_hit_rate", "fraction", "sim", count(c.hit_rate())},
      {"media.cache_evictions", "count", "sim", count(c.evictions)},
      {"media.cache_bytes", "B", "sim", count(c.bytes)},
      {"server.admission_rejections", "count", "sim",
       count(r.admission_rejections)},
      {"server.queued", "count", "sim", count(r.queued_total)},
      {"server.queue_grants", "count", "sim", count(r.queue_grants)},
      {"server.queue_timeouts", "count", "sim", count(r.queue_timeouts)},
      {"server.degraded_grants", "count", "sim", count(r.degraded_grants)},
      {"client.admission_retries", "count", "sim", count(r.admission_retries)},
      {"client.completed", "count", "sim", count(r.completed)},
      {"client.degraded", "count", "sim", count(r.degraded)},
      {"client.churned", "count", "sim", count(r.churned)},
      {"client.abandoned", "count", "sim", count(r.abandoned)},
      {"client.rejected", "count", "sim", count(r.rejected)},
      {"client.failed", "count", "sim", count(r.failed)},
      {"client.unfinished", "count", "sim", count(r.unfinished)},
      {"client.startup_p95_ms", "ms", "sim", startup_ms(r.qoe_json, "p95")},
      {"net.faults_injected", "count", "sim", count(r.faults_injected)},
  };
}

std::vector<Metric> trace_metrics(const Sampler::Profile& p, double overhead) {
  std::vector<Metric> out;
  const double n = std::max<double>(1.0, static_cast<double>(p.samples));
  const auto share = [n](std::size_t k) {
    return exact(static_cast<double>(k) / n);
  };
  for (std::size_t m = 0; m < kModules.size(); ++m) {
    const std::string mod(kModules[m]);
    out.push_back({mod + ".self_share", "fraction", "host", share(p.self[m])});
    out.push_back({mod + ".incl_share", "fraction", "host", share(p.incl[m])});
  }
  out.push_back({"unattributed.share", "fraction", "host",
                 share(p.unattributed)});
  out.push_back({"trace.samples", "count", "host",
                 exact(static_cast<double>(p.samples))});
  out.push_back({"trace.overhead", "ratio", "host", exact(overhead)});
  return out;
}

void print_profile(const Sampler::Profile& p) {
  std::printf("trace: %zu samples, %zu dropped, %zu truncated stacks\n",
              p.samples, p.dropped, p.truncated);
  std::printf("top %zu leaf functions (share of samples, module):\n",
              p.top_leaves.size());
  const double n = std::max<double>(1.0, static_cast<double>(p.samples));
  for (const Sampler::Leaf& leaf : p.top_leaves) {
    const std::string mod =
        leaf.module >= 0 ? std::string(kModules[static_cast<std::size_t>(
                               leaf.module)])
                         : "-";
    std::printf("  %6.2f%%  %-9s %.150s\n",
                100.0 * static_cast<double>(leaf.samples) / n, mod.c_str(),
                leaf.symbol.c_str());
  }
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-10s %s", m.name.c_str(), m.s.median,
                m.unit.c_str(), m.clock);
    if (m.s.q1 != m.s.q3) {
      std::printf("  [q1 %.6g, q3 %.6g, n=%zu]", m.s.q1, m.s.q3, m.s.n);
    } else if (m.s.n > 1) {
      std::printf("  [n=%zu]", m.s.n);
    }
    std::printf("\n");
  }
}

/// A JSON number with every digit, or null when the reading is not finite
/// (a missing export field), which the schema check then rejects.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void append_metrics_json(std::string& out, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    out += out.back() == '{' ? "\"" : ", \"";
    out += m.name + "\": {\"value\": " + json_number(m.s.median) +
           ", \"unit\": \"" + m.unit + "\", \"clock\": \"" + m.clock +
           "\", \"q1\": " + json_number(m.s.q1) +
           ", \"q3\": " + json_number(m.s.q3) +
           ", \"n\": " + std::to_string(m.s.n) + "}";
  }
}

int run_workload(const Workload& w, const Options& opt) {
  const std::string name(w.name);
  std::printf("== %s  seed %llu  (%d sessions, %u partition(s), %d thread(s), "
              "hardware_concurrency %u)\n",
              name.c_str(), static_cast<unsigned long long>(w.cfg.seed),
              w.cfg.sessions, w.cfg.partitions, w.threads,
              std::thread::hardware_concurrency());

  Checker checker;
  std::unique_ptr<Sampler> sampler;
  if (opt.trace) sampler = std::make_unique<Sampler>(kSampleSlots);
  Rep first;                 // the one copy of the exports that is kept
  std::vector<Rep> reps;     // untraced: every host metric comes from these
  std::vector<double> traced_wall;

  // Set-up: the fleet, documents and arrival plan, with nothing simulated,
  // so on one thread (starting idle workers would only add their spawn
  // jitter). Timed a few calls after every repetition, on a warm heap: first
  // thing in a fresh process the same calls varied by half between
  // processes on the reference host, and a process's speed shifts within
  // seconds.
  const auto time_setup = [&w] {
    PopulationConfig cfg = w.cfg;
    cfg.run_for = Time::zero();
    const auto t0 = std::chrono::steady_clock::now();
    (void)hyms::hermes::run_population(cfg, 1);
    return seconds_since(t0);
  };
  std::vector<double> setup;
  SpeedProbe probe;
  double probe_before = probe.measure();
  const auto start = std::chrono::steady_clock::now();
  for (int round = 1;; ++round) {
    Rep rep = run_rep(w.cfg, w.threads, nullptr);
    double rep_setup[kSetupCallsPerRep];
    for (double& t : rep_setup) t = time_setup();
    const double probe_after = probe.measure();
    rep.scale = SpeedProbe::scale(probe_before, probe_after);
    probe_before = probe_after;
    for (const double t : rep_setup) setup.push_back(t * rep.scale);
    checker.run(rep.result, reps.empty() ? nullptr : &first.result);
    if (reps.empty()) first = rep;
    rep.result = {};
    reps.push_back(std::move(rep));
    if (sampler != nullptr) {
      const Rep t = run_rep(w.cfg, w.threads, sampler.get());
      checker.run(t.result, &first.result);
      traced_wall.push_back(t.wall_s);
      probe_before = probe.measure();
    }
    const double elapsed = seconds_since(start);
    const bool done = opt.seconds > 0.0 ? elapsed * (round + 1) / round >
                                              opt.seconds
                                        : round >= opt.reps;
    if (done) break;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Partitioned: untimed, and after the memory reading, the same world on
  // one worker thread (a gate) and on the sequential kernel (reported only:
  // at 1000 sessions some seeds diverge, see README.md).
  std::string vs_sequential;
  if (w.cfg.partitions > 1) {
    checker.same_at_one_thread(first.result,
                               hyms::hermes::run_population(w.cfg, 1));
    PopulationConfig seq_cfg = w.cfg;
    seq_cfg.partitions = 1;
    vs_sequential =
        differences(first.result, hyms::hermes::run_population(seq_cfg, 1));
  }

  const std::vector<Metric> e2e =
      end_to_end(first.result, reps, setup, peak_rss_mb);
  std::vector<Metric> layers = per_layer(w.threads, first, reps);
  std::vector<double> scales;
  for (const Rep& rep : reps) scales.push_back(rep.scale);
  const double host_scale = summarize(scales).median;
  std::printf("fingerprint 0x%016llx  (%zu repetition(s)%s)\n",
              static_cast<unsigned long long>(first.result.fingerprint),
              reps.size(), sampler != nullptr ? " + as many traced" : "");
  std::printf("host times scaled by %.4f (memory probe; unscaled "
              "sessions_per_s %.6g)\n",
              host_scale, e2e.front().s.median * host_scale);
  if (w.cfg.partitions > 1) {
    std::printf("sequential kernel: %s%s\n",
                vs_sequential.empty() ? "identical" : "differs in ",
                vs_sequential.c_str());
  }
  print_metrics("end-to-end:", e2e);
  if (sampler != nullptr) {
    const Sampler::Profile p = sampler->profile(kTopLeaves);
    print_profile(p);
    const double overhead =
        summarize(traced_wall).median / summarize(walls(reps)).median;
    const std::vector<Metric> trace = trace_metrics(p, overhead);
    layers.insert(layers.end(), trace.begin(), trace.end());
  }
  print_metrics("per-layer:", layers);
  std::printf("checks: %d run(s) checked, %d failed\n", checker.attempted(),
              checker.failed());
  for (const std::string& f : checker.failures()) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }

  if (!opt.json.empty()) {
    char head[512];
    std::snprintf(
        head, sizeof(head),
        "{\"workload\": \"%s\", \"seed\": %llu, \"fingerprint\": "
        "\"0x%016llx\", \"matches_sequential\": %s, \"hardware_concurrency\": "
        "%u, \"host_scale\": %.17g, \"reps\": %zu, \"traced\": %s, "
        "\"attempted\": %d, \"failed\": %d, \"metrics\": {",
        name.c_str(), static_cast<unsigned long long>(w.cfg.seed),
        static_cast<unsigned long long>(first.result.fingerprint),
        vs_sequential.empty() ? "true" : "false",
        std::thread::hardware_concurrency(), host_scale, reps.size(),
        sampler != nullptr ? "true" : "false", checker.attempted(),
        checker.failed());
    std::string line = head;
    append_metrics_json(line, e2e);
    append_metrics_json(line, layers);
    line += "}}\n";
    std::FILE* f = std::fopen(opt.json.c_str(), "a");
    const bool written = f != nullptr && std::fputs(line.c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "hyms_bench: cannot write %s\n", opt.json.c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  return checker.failed() == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hyms_bench --workload <name|all> [--seed S] "
               "[--reps N | --seconds T] [--trace] [--json FILE]\n"
               "workloads:");
  for (const Workload& w : make_workloads(1)) {
    std::fprintf(stderr, " %s", std::string(w.name).c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && has_value) {
      opt.reps = std::atoi(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--json" && has_value) {
      opt.json = argv[++i];
    } else if (arg == "--trace") {
      opt.trace = true;
    } else {
      return usage();
    }
  }
  if (opt.reps < 1 || opt.seconds < 0.0) return usage();

  std::vector<Workload> chosen;
  for (const Workload& w : make_workloads(opt.seed)) {
    if (opt.workload == "all" || opt.workload == w.name) chosen.push_back(w);
  }
  if (chosen.empty()) return usage();
  if (!opt.json.empty()) {
    std::FILE* f = std::fopen(opt.json.c_str(), "w");
    if (f == nullptr || std::fclose(f) != 0) {
      std::fprintf(stderr, "hyms_bench: cannot write %s\n", opt.json.c_str());
      return 1;
    }
  }
  if (chosen.size() == 1) return run_workload(chosen.front(), opt);

  int worst = 0;
  for (const Workload& w : chosen) {
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("hyms_bench: fork");
      return 1;
    }
    if (pid == 0) {
      const int code = run_workload(w, opt);
      std::fflush(nullptr);
      _exit(code);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
      worst = 1;
    } else {
      worst = std::max(worst, WEXITSTATUS(status));
    }
    std::printf("\n");
  }
  return worst;
}
