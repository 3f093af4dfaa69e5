#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdlib>
#include <thread>

#include "client/browser_session.hpp"
#include "hermes/deployment.hpp"
#include "hermes/lesson_builder.hpp"
#include "hermes/sample_content.hpp"
#include "net/cross_traffic.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"

namespace hyms::bench {

std::string lecture_markup(int seconds, int video_kbps,
                           const std::string& doc_tag) {
  const std::string tag = doc_tag.empty() ? "" : "-" + doc_tag;
  hermes::LessonBuilder lesson("Bench lecture " + std::to_string(seconds) +
                               "s" + tag);
  lesson.heading(1, "Benchmark lecture")
      .text("Synthetic lecture used by the experiment harness.")
      .image("SLIDE", "image:jpeg:bench-slide" + tag, Time::zero(),
             Time::sec(seconds))
      .av_pair("AU",
               "audio:pcm:bench-voice" + tag + ":" + std::to_string(seconds),
               "VI",
               "video:mpeg:bench-clip" + tag + ":" + std::to_string(seconds) +
                   ":" + std::to_string(video_kbps),
               Time::sec(1), Time::sec(seconds - 1));
  return lesson.markup_text();
}

client::BrowserSession::Config chaos_session_config(bool harsh) {
  client::BrowserSession::Config c;
  c.tcp.max_syn_retries = 4;
  c.tcp.max_rto = Time::sec(4);
  c.tcp.max_retransmits = 8;
  c.recovery.enabled = true;
  c.recovery.request_timeout = Time::sec(2);
  c.recovery.liveness_timeout = Time::sec(2);
  c.recovery.liveness_poll = Time::msec(500);
  c.recovery.backoff_initial = Time::msec(300);
  c.recovery.backoff_cap = Time::sec(2);
  c.recovery.max_attempts = 10;
  if (harsh) {
    // The abnormal-session regime: a tight recovery budget against a
    // denser, longer fault plan, so some sessions exhaust their attempts
    // and end degraded/aborted — the flight recorder's dump path.
    c.recovery.max_attempts = 2;
    c.recovery.backoff_cap = Time::sec(1);
  }
  return c;
}

hermes::Deployment::Config chaos_deployment_config() {
  hermes::Deployment::Config dc;
  dc.server_template.dead_peer_timeout = Time::sec(6);
  dc.server_template.tcp.max_syn_retries = 4;
  dc.server_template.tcp.max_rto = Time::sec(4);
  dc.server_template.tcp.max_retransmits = 8;
  return dc;
}

net::ChaosProfile chaos_profile(bool harsh) {
  net::ChaosProfile profile;
  profile.horizon = Time::sec(15);
  profile.start = Time::sec(2);
  profile.max_faults = 3;
  profile.max_outage = Time::sec(4);
  if (harsh) {
    profile.max_faults = 6;
    profile.max_outage = Time::sec(10);
    profile.w_server_crash = 3.0;
    profile.w_partition = 3.0;
  }
  return profile;
}

RunTelemetry::RunTelemetry(sim::Simulator& sim, std::string trace_file,
                           std::string metrics_file, bool collect_qoe)
    : trace_file_(std::move(trace_file)),
      metrics_file_(std::move(metrics_file)) {
  if (!collect_qoe && trace_file_.empty() && metrics_file_.empty()) return;
  hub_.set_tracing(!trace_file_.empty());
  sim.set_telemetry(&hub_);
}

telemetry::QoeRecord RunTelemetry::finish(hermes::Deployment& deployment,
                                          client::BrowserSession& session) {
  if (deployment.sim().telemetry() != &hub_) return {};
  // Seal the session's QoE record (horizon runs never disconnect).
  session.finalize_qoe();
  deployment.sim().flush_telemetry();
  deployment.network().flush_telemetry();
  for (int i = 0; i < deployment.server_count(); ++i) {
    deployment.server(i).flush_telemetry();
  }
  if (auto* p = session.presentation()) p->flush_telemetry();
  if (!trace_file_.empty()) hub_.write_trace_json(trace_file_);
  if (!metrics_file_.empty()) hub_.write_metrics_csv(metrics_file_);
  const auto* rec = hub_.qoe().find(session.trace_id());
  return rec != nullptr ? *rec : telemetry::QoeRecord{};
}

SessionMetrics run_session(const SessionParams& params) {
  SessionMetrics metrics;
  sim::Simulator sim(params.seed);
  RunTelemetry run_telemetry(sim, params.trace_file, params.metrics_file,
                             params.collect_qoe);

  hermes::Deployment::Config config;
  config.client_access.bandwidth_bps = params.access_bandwidth_bps;
  config.client_access.queue_capacity_bytes = 48 * 1024;
  config.backbone.batching = params.link_batching;
  config.client_access.batching = params.link_batching;
  config.server_template.qos.enabled = params.qos_enabled;
  config.server_template.qos.action_hold = params.qos_action_hold;
  config.server_template.qos.degrade_order =
      params.qos_audio_first
          ? server::ServerQosManager::DegradeOrder::kAudioFirst
          : server::ServerQosManager::DegradeOrder::kVideoFirst;
  config.server_template.frame_cache = params.frame_cache;
  config.server_template.frame_cache_bytes = params.frame_cache_bytes;
  hermes::Deployment deployment(sim, config);
  if (!deployment.server(0).documents().add("doc", params.markup).ok()) {
    metrics.failed = true;
    metrics.error = "bad markup";
    return metrics;
  }

  // Impairments on the downlink carrying the media.
  {
    auto link_params = deployment.client_downlink(0)->params();
    link_params.jitter_mean = params.jitter_mean;
    link_params.jitter_stddev = params.jitter_stddev;
    if (params.burst_loss) {
      link_params.loss =
          std::make_shared<net::GilbertElliottLoss>(*params.burst_loss);
    } else if (params.bernoulli_loss > 0) {
      link_params.loss =
          std::make_shared<net::BernoulliLoss>(params.bernoulli_loss);
    }
    deployment.client_downlink(0)->set_params(link_params);
  }

  std::unique_ptr<net::PacketSink> sink;
  std::unique_ptr<net::OnOffSource> cross;
  if (params.cross_rate_bps > 0) {
    sink = std::make_unique<net::PacketSink>(deployment.network(),
                                             deployment.client_node(0), 9999);
    net::OnOffSource::Params cp;
    cp.rate_bps_on = params.cross_rate_bps;
    cp.mean_on = params.cross_mean_on;
    cp.mean_off = params.cross_mean_off;
    cp.start_in_on = true;
    cross = std::make_unique<net::OnOffSource>(
        deployment.network(), deployment.server_node(0), sink->endpoint(), cp);
    cross->start();
  }

  client::BrowserSession::Config bc;
  bc.presentation.time_window = params.time_window;
  bc.presentation.low_watermark = params.low_watermark;
  bc.presentation.high_watermark = params.high_watermark;
  bc.presentation.sync.enabled = params.sync_enabled;
  bc.presentation.sync.allow_skip = params.sync_allow_skip;
  bc.presentation.sync.allow_pause = params.sync_allow_pause;
  bc.presentation.sync.max_skew = params.sync_max_skew;
  bc.presentation.rtcp_rr_interval = params.rtcp_rr_interval;
  bc.presentation.record_events = params.capture_playout_events;
  client::BrowserSession session(deployment.network(),
                                 deployment.client_node(0),
                                 deployment.server(0).control_endpoint(), bc);
  session.set_subscription_form(hermes::student_form("bench", "standard"));

  Time requested_at;
  Time viewing_at;
  session.set_on_viewing([&] { viewing_at = sim.now(); });

  session.connect("bench", "secret-bench");
  sim.run_until(Time::sec(1));
  requested_at = sim.now();
  session.request_document("doc");
  sim.run_until(params.run_for);

  if (session.presentation() == nullptr) {
    metrics.qoe = run_telemetry.finish(deployment, session);
    metrics.failed = true;
    metrics.error = session.last_error();
    return metrics;
  }

  const auto& trace = session.presentation()->trace();
  metrics.totals = trace.totals();
  metrics.fresh_ratio = metrics.totals.fresh_ratio();
  metrics.max_skew_ms = trace.max_abs_skew_ms();
  metrics.underflow_duplicates = metrics.totals.duplicates;
  metrics.late_discards = metrics.totals.late_discards;
  metrics.overflow_drops = metrics.totals.overflow_drops;
  metrics.sync_skips = metrics.totals.sync_skips;
  metrics.sync_pauses = metrics.totals.sync_pauses;
  metrics.finished = session.presentation()->scheduler().finished();
  metrics.qos = deployment.server(0).qos_totals();
  metrics.setup_ms = (viewing_at - requested_at).to_ms();

  // Skew p95 across sync groups (one group in the bench lecture).
  for (const auto& spec : session.presentation()->scenario().streams) {
    if (!spec.sync_group.empty()) {
      const auto& sampler = trace.skew_ms(spec.sync_group);
      if (!sampler.empty()) {
        metrics.p95_skew_ms = sampler.percentile(95);
      }
      break;
    }
  }
  // Transit p99 across RTP streams.
  util::Sampler transit;
  for (const auto& spec : session.presentation()->scenario().streams) {
    if (const auto* receiver = session.presentation()->receiver(spec.id)) {
      const auto& s = receiver->stats().transit_ms;
      if (!s.empty()) transit.add(s.percentile(99));
    }
  }
  if (!transit.empty()) metrics.transit_p99_ms = transit.max();
  if (params.capture_playout_events) metrics.events_csv = trace.events_csv();
  // RTCP + link-drop counters for differential (batched vs. unbatched) runs.
  for (const auto& spec : session.presentation()->scenario().streams) {
    if (const auto* receiver = session.presentation()->receiver(spec.id)) {
      metrics.rtcp_reports_sent += receiver->stats().reports_sent;
      metrics.rtcp_packets_lost += receiver->stats().packets_lost_cumulative;
    }
  }
  metrics.link_dropped_loss = deployment.client_downlink(0)->stats().dropped_loss;
  metrics.link_dropped_queue =
      deployment.client_downlink(0)->stats().dropped_queue;
  metrics.qoe = run_telemetry.finish(deployment, session);
  return metrics;
}

std::vector<SessionMetrics> run_sessions_sharded(const SessionParams& base,
                                                 int count, int threads) {
  return run_sessions_sharded(base, count, threads, nullptr);
}

std::vector<SessionMetrics> run_sessions_sharded(
    const SessionParams& base, int count, int threads,
    const std::function<void(int, SessionParams&)>& customize) {
  std::vector<SessionMetrics> results(static_cast<std::size_t>(count));
  if (count <= 0) return results;
  threads = std::max(1, std::min(threads, count));

  // Work stealing over a shared index: shards stay busy even when session
  // costs are uneven, and session i always runs seed base.seed + i.
  std::atomic<int> next{0};
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      SessionParams params = base;
      params.seed = base.seed + static_cast<std::uint64_t>(i);
      if (customize) customize(i, params);
      results[static_cast<std::size_t>(i)] = run_session(params);
    }
  };
  if (threads == 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  return results;
}

std::uint64_t session_fingerprint(const SessionMetrics& metrics) {
  // FNV-1a over the integral outcome fields; doubles are hashed through
  // their bit patterns, which is exact because the simulation itself is
  // deterministic (identical runs produce identical bits, not just values).
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&mix](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(metrics.totals.fresh));
  mix(static_cast<std::uint64_t>(metrics.totals.duplicates));
  mix(static_cast<std::uint64_t>(metrics.totals.gap_skips));
  mix(static_cast<std::uint64_t>(metrics.totals.rebuffers));
  mix(static_cast<std::uint64_t>(metrics.totals.late_discards));
  mix(static_cast<std::uint64_t>(metrics.totals.overflow_drops));
  mix(static_cast<std::uint64_t>(metrics.totals.sync_skips));
  mix(static_cast<std::uint64_t>(metrics.totals.sync_pauses));
  mix(static_cast<std::uint64_t>(metrics.qos.reports));
  mix(static_cast<std::uint64_t>(metrics.qos.degrades));
  mix(static_cast<std::uint64_t>(metrics.qos.upgrades));
  mix(metrics.finished ? 1 : 0);
  mix(metrics.failed ? 1 : 0);
  mix_double(metrics.fresh_ratio);
  mix_double(metrics.max_skew_ms);
  mix_double(metrics.p95_skew_ms);
  mix_double(metrics.setup_ms);
  mix_double(metrics.transit_p99_ms);
  return h;
}

bool built_with_assertions() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

static std::string host_name() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) != 0 || buf[0] == '\0') {
    return "unknown";
  }
  return buf;
}

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

std::string json_context(const std::string& benchmark) {
  return "{\n  \"context\": {\n    \"benchmark\": \"" + benchmark +
         "\",\n    \"host_name\": \"" + host_name() +
         "\",\n    \"hardware_concurrency\": " +
         std::to_string(hardware_threads()) +
         ",\n    \"assertions\": \"" +
         (built_with_assertions() ? "enabled" : "disabled") + "\"";
}

void jsonf(std::string& out, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  char* text = nullptr;
  const int n = ::vasprintf(&text, fmt, args);
  va_end(args);
  if (n < 0) return;
  out.append(text, static_cast<std::size_t>(n));
  std::free(text);
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

void warn_if_debug_build(const char* bench_name) {
  if (!built_with_assertions()) return;
  std::fprintf(stderr,
               "*** WARNING: %s was compiled WITHOUT NDEBUG (debug/assert "
               "build). ***\n"
               "*** Results are NOT comparable to committed Release "
               "baselines; rebuild with -DCMAKE_BUILD_TYPE=Release. ***\n",
               bench_name);
}

void Cli::parse(int argc, const char* const* argv) const {
  std::string error;
  for (int i = 1; i < argc && error.empty(); ++i) {
    const std::string arg = argv[i];
    const auto flag = std::ranges::find(flags_, arg, &Flag::name);
    if (flag == flags_.end()) {
      error = "unknown flag '" + arg + "'";
    } else if (flag->toggle) {
      flag->toggle();
    } else if (i + 1 == argc ||
               std::string_view(argv[i + 1]).starts_with("--")) {
      error = arg + " needs a value";
    } else if (!flag->set(argv[++i])) {
      error = "bad value '" + std::string(argv[i]) + "' for " + arg;
    }
  }
  if (error.empty()) return;
  std::string usage = "usage: " + program_;
  for (const Flag& f : flags_) {
    usage += " [" + f.name + (f.placeholder.empty() ? "" : " ") +
             f.placeholder + "]";
  }
  std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), error.c_str(),
               usage.c_str());
  std::exit(2);
}

namespace {
std::vector<std::size_t> g_widths;
}

void table_header(const std::vector<std::string>& columns) {
  g_widths.clear();
  std::string line;
  for (const auto& column : columns) {
    g_widths.push_back(std::max<std::size_t>(column.size() + 2, 10));
    line += util::pad(column, g_widths.back());
  }
  std::printf("%s\n%s\n", line.c_str(),
              std::string(line.size(), '-').c_str());
}

void table_row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t width = i < g_widths.size() ? g_widths[i] : 12;
    if (cells[i].size() >= width) {
      line += cells[i] + "  ";  // oversize cell: keep at least a separator
    } else {
      line += util::pad(cells[i], width);
    }
  }
  std::printf("%s\n", line.c_str());
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double ratio) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f%%", ratio * 100.0);
  return buf;
}

}  // namespace hyms::bench
