#pragma once

// Shared experiment harness for the bench/ binaries: stands up a Hermes
// deployment, runs one full client-server presentation under configurable
// network impairments, and collects the metrics EXPERIMENTS.md reports.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "client/browser_session.hpp"
#include "core/trace.hpp"
#include "hermes/deployment.hpp"
#include "media/frame_cache.hpp"
#include "net/fault.hpp"
#include "net/loss.hpp"
#include "server/qos_manager.hpp"
#include "sim/simulator.hpp"
#include "telemetry/qoe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace hyms::bench {

struct SessionParams {
  std::string markup;                 // the document to play
  std::uint64_t seed = 1;
  Time run_for = Time::sec(45);       // simulation horizon

  // Client-side configuration.
  Time time_window = Time::msec(500);  // media time window / initial delay
  double low_watermark = 0.25;
  double high_watermark = 2.0;
  bool sync_enabled = true;
  bool sync_allow_skip = true;
  bool sync_allow_pause = true;
  Time sync_max_skew = Time::msec(80);
  Time rtcp_rr_interval = Time::sec(1);

  // Server-side configuration.
  bool qos_enabled = true;
  Time qos_action_hold = Time::sec(1);
  bool qos_audio_first = false;  // A4 ablation: reverse the grading order

  // Access-link impairments (applied to the router->client downlink).
  double access_bandwidth_bps = 10e6;
  Time jitter_mean = Time::zero();
  Time jitter_stddev = Time::zero();
  double bernoulli_loss = 0.0;
  std::optional<net::GilbertElliottLoss::Params> burst_loss;

  // Cross traffic toward the client (0 = off).
  double cross_rate_bps = 0.0;
  Time cross_mean_on = Time::sec(4);
  Time cross_mean_off = Time::sec(4);

  /// Batched link transfer path (LinkParams::batching) on every link in the
  /// deployment. Off = the per-packet two-events reference path; outcomes
  /// must be identical either way (the differential test's lever).
  bool link_batching = true;
  /// Shared frame-synthesis cache installed on every server of the
  /// deployment. Null -> each server owns a private cache of
  /// frame_cache_bytes (0 disables caching: the per-frame synthesis
  /// reference path). Sharing one cache across sessions/shards is how
  /// bench_multisession amortizes Zipf-popular content. Outcomes are
  /// byte-identical cached or not (the differential test's lever).
  std::shared_ptr<media::FrameCache> frame_cache;
  std::size_t frame_cache_bytes = 64ull << 20;
  /// Record the client presentation's per-event playout trace so
  /// SessionMetrics::events_csv compares byte-for-byte across runs.
  bool capture_playout_events = false;

  // Perfetto trace JSON / metrics CSV paths (empty = off); see RunTelemetry.
  std::string trace_file;
  std::string metrics_file;
  /// Install a hub (tracing off) even without export paths and return the
  /// session's sealed QoE record in SessionMetrics::qoe — the benches
  /// aggregate these into a fleet SLO report (--slo-json).
  bool collect_qoe = false;
};

struct SessionMetrics {
  core::StreamPlayoutStats totals;
  double fresh_ratio = 0.0;
  double max_skew_ms = 0.0;
  double p95_skew_ms = 0.0;
  std::int64_t underflow_duplicates = 0;
  std::int64_t late_discards = 0;
  std::int64_t overflow_drops = 0;
  std::int64_t sync_skips = 0;
  std::int64_t sync_pauses = 0;
  server::ServerQosManager::Stats qos;
  bool finished = false;
  bool failed = false;
  std::string error;
  /// Sim time from DocumentRequest to the kViewing transition.
  double setup_ms = 0.0;
  /// Mean/99p one-way transit of RTP frames (ms), across streams.
  double transit_p99_ms = 0.0;
  /// Playout trace CSV (only when capture_playout_events was set).
  std::string events_csv;
  /// RTCP receiver-side feedback counters, summed across streams.
  std::int64_t rtcp_reports_sent = 0;
  std::int64_t rtcp_packets_lost = 0;
  /// Drop counters of the impaired client downlink.
  std::int64_t link_dropped_loss = 0;
  std::int64_t link_dropped_queue = 0;
  /// Sealed per-session QoE record (trace_id == 0 when QoE collection was
  /// off). Includes the flight-recorder black_box for abnormal outcomes.
  telemetry::QoeRecord qoe;
};

/// Run one complete session (connect, subscribe, request, play, teardown).
SessionMetrics run_session(const SessionParams& params);

/// Run `count` independent sessions (seeds base.seed, base.seed+1, ...)
/// sharded across `threads` worker threads. Each session owns its Simulator
/// and deployment, so the shards share no mutable state — except an
/// explicitly installed SessionParams::frame_cache, which is thread-safe and
/// invisible to outcomes — and results are byte-for-byte the ones a
/// sequential loop would produce, in seed order.
std::vector<SessionMetrics> run_sessions_sharded(const SessionParams& base,
                                                 int count, int threads);

/// As above, with a per-session parameter hook: `customize(i, params)` runs
/// after the seed is assigned, letting callers vary e.g. the document per
/// session (Zipf popularity in bench_multisession) deterministically by
/// index.
std::vector<SessionMetrics> run_sessions_sharded(
    const SessionParams& base, int count, int threads,
    const std::function<void(int, SessionParams&)>& customize);

/// Order-sensitive digest of the observable outcome of one session; two runs
/// of the same seed must produce equal fingerprints (determinism check).
std::uint64_t session_fingerprint(const SessionMetrics& metrics);

/// The telemetry of one bench run. Build it right after the Simulator, so
/// components can intern their tracks in their constructors. It installs a
/// hub only when a trace, metrics or QoE export is wanted, and records spans
/// only when `trace_file` is set.
class RunTelemetry {
 public:
  RunTelemetry(sim::Simulator& sim, std::string trace_file,
               std::string metrics_file, bool collect_qoe);
  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  /// Flush the simulator, the network, every server and the session's
  /// presentation; write the trace JSON and the metrics CSV; return the
  /// session's sealed QoE record (trace_id == 0 when no hub is installed).
  telemetry::QoeRecord finish(hermes::Deployment& deployment,
                              client::BrowserSession& session);

 private:
  std::string trace_file_;
  std::string metrics_file_;
  telemetry::Hub hub_;
};

/// True when the binary was compiled with assertions on (no NDEBUG).
[[nodiscard]] bool built_with_assertions();

/// std::thread::hardware_concurrency() with a floor of 1 (the standard allows
/// 0 for "unknown"). Emitted into every BENCH_*.json context: speedup numbers
/// from a 1-CPU container are not comparable to a many-core host's.
[[nodiscard]] unsigned hardware_threads();

/// Head of a BENCH_*.json document through the context fields every bench
/// shares: benchmark, host_name (check_bench_regression.py warns across
/// hosts), hardware_concurrency and assertions. The caller appends its own
/// fields, each starting ",\n    ", and closes the context.
[[nodiscard]] std::string json_context(const std::string& benchmark);

/// printf-append to a BENCH_*.json document.
[[gnu::format(printf, 2, 3)]] void jsonf(std::string& out, const char* fmt,
                                         ...);

/// Write `text` to `path`. On failure print "cannot write PATH" to stderr
/// and return false.
bool write_file(const std::string& path, std::string_view text);

/// Print a loud stderr warning when the benchmark binary is a debug build —
/// numbers from it are not comparable to the committed Release baselines.
void warn_if_debug_build(const char* bench_name);

/// A ~`seconds`-long lecture document with one synced AV pair and a slide.
/// `doc_tag`, when non-empty, is woven into every SOURCE name so distinct
/// documents carry distinct media content (their frame-cache keys differ).
std::string lecture_markup(int seconds, int video_kbps = 1200,
                           const std::string& doc_tag = "");

// --- chaos runs (bench_chaos, tests/test_chaos.cpp) --------------------------

/// Client of a chaos run: TCP budgets that surface an outage within seconds
/// and outage recovery on. `harsh` is the abnormal-session regime: a tight
/// recovery budget, so some sessions exhaust it.
client::BrowserSession::Config chaos_session_config(bool harsh);
/// Deployment of a chaos run: server TCP budgets matching the client's and
/// a 6 s dead-peer timeout.
hermes::Deployment::Config chaos_deployment_config();
/// Fault-plan shape of a chaos run; `harsh` is denser and longer, weighted
/// toward server crashes and partitions.
net::ChaosProfile chaos_profile(bool harsh);

// --- command line ------------------------------------------------------------

/// The bench binaries' flag parser. One syntax: `--name VALUE` for values
/// and a bare `--name` for switches. Numbers must parse whole. Flags apply
/// in argv order, so an explicit flag after a preset switch (--smoke)
/// overrides the preset, and the reverse order keeps the preset.
class Cli {
 public:
  explicit Cli(std::string program) : program_(std::move(program)) {}

  /// `--name VALUE` into a number, a string or a comma-separated list of
  /// ints (`--threads 1,2,4`); `placeholder` names VALUE in the usage line.
  template <typename T>
  Cli& value(std::string name, std::string placeholder, T& out) {
    flags_.push_back({std::move(name), std::move(placeholder),
                      [&out](auto arg) { return parse_whole(arg, out); }, {}});
    return *this;
  }
  /// A bare switch that runs `apply` where it appears, or sets `out`.
  Cli& toggle(std::string name, std::function<void()> apply) {
    flags_.push_back({std::move(name), "", {}, std::move(apply)});
    return *this;
  }
  Cli& toggle(std::string name, bool& out) {
    return toggle(std::move(name), [&out] { out = true; });
  }

  /// Apply argv in order. A missing value, a malformed number, the
  /// `--name=VALUE` form or an unknown flag prints the error and the usage
  /// line (the declared flags, in order) to stderr and exits 2.
  void parse(int argc, const char* const* argv) const;

 private:
  struct Flag {
    std::string name;
    std::string placeholder;                    // empty for a switch
    std::function<bool(std::string_view)> set;  // false: malformed value
    std::function<void()> toggle;
  };

  /// All of `text` into `out`; false when it is malformed ("5x", "",
  /// "1,,2"). Numbers go through std::from_chars.
  template <typename T>
  static bool parse_whole(std::string_view text, T& out) {
    if constexpr (std::is_same_v<T, std::string>) {
      out = text;
    } else if constexpr (std::is_same_v<T, std::vector<int>>) {
      out.clear();
      for (const std::string& item : util::split(text, ',')) {
        if (!parse_whole(item, out.emplace_back())) return false;
      }
    } else {
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, out);
      return ec == std::errc{} && ptr == end;
    }
    return true;
  }

  std::string program_;
  std::vector<Flag> flags_;
};

// --- table output ------------------------------------------------------------

void table_header(const std::vector<std::string>& columns);
void table_row(const std::vector<std::string>& cells);
std::string fmt(double v, int precision = 2);
std::string fmt_pct(double ratio);

}  // namespace hyms::bench
