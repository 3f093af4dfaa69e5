#include "hermes/population.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "client/browser_session.hpp"
#include "hermes/deployment.hpp"
#include "hermes/lesson_builder.hpp"
#include "hermes/sample_content.hpp"
#include "net/fault.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace hyms::hermes {

namespace {

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_bytes(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The bench lecture shape: an always-on slide plus a lip-synced AV pair.
/// Media-source names depend only on the document tag — NOT on the serving
/// host — so every replica of doc k on every server shares cache entries.
std::string lecture_markup(int seconds, int video_kbps,
                           const std::string& tag) {
  LessonBuilder lesson("Population lecture " + tag);
  lesson.heading(1, "Population lecture")
      .text("Synthetic lecture used by the session-population driver.")
      .image("SLIDE", "image:jpeg:pop-slide-" + tag, Time::zero(),
             Time::sec(seconds))
      .av_pair("AU", "audio:pcm:pop-voice-" + tag + ":" +
                         std::to_string(seconds),
               "VI",
               "video:mpeg:pop-clip-" + tag + ":" + std::to_string(seconds) +
                   ":" + std::to_string(video_kbps),
               Time::sec(1), Time::sec(seconds - 1));
  return lesson.markup_text();
}

/// Cumulative diurnal intensity: Lambda(t) = t + depth*(W/2pi)(1-cos(2pi t/W))
/// for intensity 1 + depth*sin(2pi t/W). Monotone for depth < 1.
double cum_intensity(double t, double window, double depth) {
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  return t + depth * (window / kTwoPi) * (1.0 - std::cos(kTwoPi * t / window));
}

/// Invert Lambda by bisection: the t in [0, W] with Lambda(t) = target.
double invert_intensity(double target, double window, double depth) {
  double lo = 0.0;
  double hi = window;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (cum_intensity(mid, window, depth) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

enum class EventKind : std::uint8_t {
  kArrive = 0,
  kViewing = 1,
  kFinish = 2,
  kChurn = 3,
  kAbandon = 4,
  kError = 5,
  kQueued = 6,   // server parked the request in its admission wait queue
  kRetry = 7,    // client scheduled an admission-rejection retry
};

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kArrive: return "arrive";
    case EventKind::kViewing: return "viewing";
    case EventKind::kFinish: return "finish";
    case EventKind::kChurn: return "churn";
    case EventKind::kAbandon: return "abandon";
    case EventKind::kError: return "error";
    case EventKind::kQueued: return "queued";
    case EventKind::kRetry: return "retry";
  }
  return "?";
}

struct LogEntry {
  std::int64_t t_us = 0;
  std::int32_t session = 0;
  EventKind kind = EventKind::kArrive;
  std::int64_t a = 0;
};

/// A session's pre-generated fate: pure function of the config and seed,
/// drawn before any simulator exists.
struct Plan {
  Time arrival;
  int doc = 0;       // 0-based popularity rank
  Time patience;     // give-up bound if viewing never starts
  bool churn = false;
  Time churn_after;  // disconnect this long after viewing starts
};

std::vector<Plan> make_plans(const PopulationConfig& cfg) {
  util::Rng rng(cfg.seed ^ 0x504F50554C4154ULL);  // independent of sim streams
  const int flash = static_cast<int>(
      std::llround(cfg.flash_fraction * cfg.sessions));
  const int normal = cfg.sessions - flash;
  const double window_us = static_cast<double>(cfg.arrival_window.us());
  const double total = cum_intensity(window_us, window_us, cfg.diurnal_depth);

  // Zipf CDF over documents, rank 0 most popular.
  std::vector<double> cdf(static_cast<std::size_t>(cfg.documents));
  double sum = 0.0;
  for (int k = 0; k < cfg.documents; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), cfg.zipf_s);
    cdf[static_cast<std::size_t>(k)] = sum;
  }

  std::vector<Plan> plans;
  plans.reserve(static_cast<std::size_t>(cfg.sessions));
  for (int i = 0; i < normal; ++i) {
    Plan p;
    p.arrival = Time::usec(static_cast<std::int64_t>(invert_intensity(
        rng.uniform() * total, window_us, cfg.diurnal_depth)));
    const double u = rng.uniform() * sum;
    p.doc = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    p.doc = std::min(p.doc, cfg.documents - 1);
    p.patience = Time::usec(static_cast<std::int64_t>(
        static_cast<double>(cfg.patience.us()) * (0.75 + 0.5 * rng.uniform())));
    p.churn = rng.bernoulli(cfg.churn_fraction);
    p.churn_after = Time::usec(static_cast<std::int64_t>(
        1e6 * cfg.doc_seconds * (0.2 + 0.5 * rng.uniform())));
    plans.push_back(p);
  }
  for (int i = 0; i < flash; ++i) {
    Plan p;
    p.arrival = cfg.flash_at +
                Time::usec(static_cast<std::int64_t>(
                    rng.uniform() * static_cast<double>(cfg.flash_width.us())));
    p.doc = 0;  // the crowd piles onto the most popular lesson
    p.patience = Time::usec(static_cast<std::int64_t>(
        static_cast<double>(cfg.patience.us()) * (0.75 + 0.5 * rng.uniform())));
    p.churn = rng.bernoulli(cfg.churn_fraction);
    p.churn_after = Time::usec(static_cast<std::int64_t>(
        1e6 * cfg.doc_seconds * (0.2 + 0.5 * rng.uniform())));
    plans.push_back(p);
  }

  // Arrival order defines the session index (and trace id), so sort by time
  // and force strictly increasing instants: two sessions arriving on the
  // same microsecond would otherwise race their connects.
  std::sort(plans.begin(), plans.end(),
            [](const Plan& a, const Plan& b) { return a.arrival < b.arrival; });
  for (std::size_t i = 1; i < plans.size(); ++i) {
    if (plans[i].arrival <= plans[i - 1].arrival) {
      plans[i].arrival = plans[i - 1].arrival + Time::usec(1);
    }
  }
  return plans;
}

struct SessionState {
  std::unique_ptr<client::BrowserSession> session;
  bool viewing = false;
  bool finished = false;
  bool churned = false;
  bool abandoned = false;
  bool errored = false;
  /// Patience extensions left for a session observably mid-retry (a session
  /// parked in the server's wait queue extends for free — see
  /// check_impatience). Three: the retry loop quotes concrete retry-after
  /// hints, so an engaged user hangs on for a few rounds before walking.
  int extensions_left = 3;
};

/// Impatience: abandon if viewing never starts within `patience` of the
/// check being armed. A session visibly parked in the server's wait queue
/// keeps its patience alive — the user is watching a live queue position,
/// and every stay is bounded by the server's queue deadline plus the
/// client's retry budget, so this cannot extend forever. A session merely
/// mid-retry gets SessionState::extensions_left (three) extensions ("the
/// system said come back") and then abandons for real.
void check_impatience(sim::Simulator& psim, SessionState* st,
                      std::vector<LogEntry>* log, std::size_t sid,
                      Time patience) {
  psim.schedule_at(psim.now() + patience, [&psim, st, log, sid, patience] {
    if (st->viewing || st->errored || st->session == nullptr) return;
    const bool queued =
        st->session->state() == client::ClientState::kQueuedForAdmission;
    if (queued) {
      check_impatience(psim, st, log, sid, patience);
      return;
    }
    if (st->session->admission_retries() > 0 && st->extensions_left > 0) {
      --st->extensions_left;
      check_impatience(psim, st, log, sid, patience);
      return;
    }
    st->abandoned = true;
    // The `a` column records the client state the session gave up in —
    // separates "never got a reply" from "mid-retry" in the event log.
    log->push_back({psim.now().us(), static_cast<std::int32_t>(sid),
                    EventKind::kAbandon,
                    static_cast<std::int64_t>(st->session->state())});
    st->session->disconnect();
  });
}

}  // namespace

PopulationResult run_population(const PopulationConfig& cfg, int threads) {
  if (cfg.sessions < 1 || cfg.servers < 1 || cfg.documents < 1) {
    throw std::invalid_argument("population: sessions/servers/documents >= 1");
  }
  if (cfg.partitions < 1) {
    throw std::invalid_argument("population: partitions >= 1");
  }
  const auto num_parts = static_cast<std::size_t>(cfg.partitions);
  const bool parallel = num_parts > 1;

  const std::vector<Plan> plans = make_plans(cfg);

  // Every partition kernel gets the SAME seed: util::Rng::fork is pure, so
  // each component draws the same substream no matter which kernel it forked
  // from — partitioning never perturbs randomness.
  std::vector<std::unique_ptr<telemetry::Hub>> hubs;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::Simulator*> sim_ptrs;
  for (std::size_t p = 0; p < num_parts; ++p) {
    hubs.push_back(std::make_unique<telemetry::Hub>());
    hubs.back()->set_tracing(false);  // the population reads QoE only
    sims.push_back(std::make_unique<sim::Simulator>(cfg.seed));
    if (cfg.telemetry) sims.back()->set_telemetry(hubs.back().get());
    sim_ptrs.push_back(sims.back().get());
  }
  sim::ParallelExec exec;
  if (parallel) {
    for (auto& s : sims) exec.add_partition(*s);
  }

  Deployment::Config dcfg;
  dcfg.server_count = cfg.servers;
  dcfg.client_count = cfg.sessions;
  // Deterministic stagger de-correlates the per-host periodic packet
  // processes (see Deployment::Config); part of the topology, so identical
  // at every partition count.
  dcfg.client_propagation_spread = Time::usec(13);
  dcfg.server_propagation_spread = Time::usec(7);
  dcfg.server_template = cfg.server_template;
  if (cfg.overload_control) {
    // Give the fleet an overload posture unless the caller's template
    // already took a stance: bounded wait queue + 2-notch ladder. The
    // deadline must cover a full head-of-line drain of the queue (depth /
    // service rate), or the tail of every burst times out by construction.
    server::AdmissionControl::Config& adm = dcfg.server_template.admission;
    if (adm.queue_limit == 0) {
      adm.queue_limit = 128;
      adm.queue_deadline = Time::sec(15);
    }
    if (adm.degrade_steps == 0) adm.degrade_steps = 2;
  }
  std::shared_ptr<media::FrameCache> cache = cfg.frame_cache;
  if (cache == nullptr) {
    media::FrameCache::Config cc;
    cc.byte_budget = cfg.frame_cache_bytes;
    cache = std::make_shared<media::FrameCache>(cc);
  }
  dcfg.server_template.frame_cache = cache;

  Deployment deployment(sim_ptrs, parallel ? &exec : nullptr, dcfg);
  net::Network& net = deployment.network();

  Time lookahead = Time::max();
  if (parallel) {
    lookahead = net.cross_lookahead();
    exec.set_lookahead(lookahead);
  }

  // Chaos: a fixed, seed-independent fault script aimed at the flash crowd —
  // server 0 (doc-1's home, the crowd's target) crashes with its wait queue
  // populated and comes back; a backbone link flaps during the retry storm.
  // Armed before the run so the per-partition thunks enter every kernel's
  // calendar in plan order (the parallel-executor determinism contract).
  std::unique_ptr<net::FaultInjector> injector;
  if (cfg.chaos) {
    injector = std::make_unique<net::FaultInjector>(net);
    const int crash_target = injector->register_server(
        "pop-server-0", deployment.server_node(0),
        [&deployment] { deployment.server(0).crash(); },
        [&deployment] { deployment.server(0).restart(); });
    net::FaultPlan plan;
    net::FaultEvent crash;
    crash.at = cfg.flash_at + Time::msec(800);
    crash.kind = net::FaultKind::kServerCrash;
    crash.server = crash_target;
    plan.add(crash);
    net::FaultEvent restart = crash;
    restart.at = cfg.flash_at + Time::msec(2300);
    restart.kind = net::FaultKind::kServerRestart;
    plan.add(restart);
    if (cfg.servers > 1) {
      net::FaultEvent down;
      down.at = cfg.flash_at + Time::sec(3);
      down.kind = net::FaultKind::kLinkDown;
      down.a = deployment.router();
      down.b = deployment.server_node(1);
      plan.add(down);
      net::FaultEvent up = down;
      up.at = down.at + Time::msec(500);
      up.kind = net::FaultKind::kLinkUp;
      plan.add(up);
    }
    plan.normalize();
    injector->arm(plan);
  }

  // Every server carries every document under identical media-source names:
  // the shared FrameCache then deduplicates frame synthesis fleet-wide.
  for (int s = 0; s < cfg.servers; ++s) {
    for (int k = 0; k < cfg.documents; ++k) {
      const std::string name = "doc-" + std::to_string(k + 1);
      const std::string markup = lecture_markup(
          cfg.doc_seconds, cfg.video_kbps, std::to_string(k + 1));
      if (!deployment.server(s).documents().add(name, markup).ok()) {
        throw std::runtime_error("population: bad lesson markup");
      }
    }
  }

  // --- spawn plan: arrivals pre-scheduled on each client's own kernel ------
  const bool overload = cfg.overload_control;
  const bool chaos = cfg.chaos;
  std::vector<SessionState> states(plans.size());
  std::vector<std::vector<LogEntry>> logs(num_parts);  // partition-local
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Plan& plan = plans[i];
    const std::size_t part = i % num_parts;  // deployment homes client i there
    sim::Simulator& psim = *sims[part];
    SessionState* st = &states[i];
    std::vector<LogEntry>* log = &logs[part];
    const auto sid = static_cast<std::int32_t>(i);
    const int server_idx = plan.doc % cfg.servers;

    psim.schedule_at(plan.arrival, [&net, &deployment, &psim, st, log, sid,
                                    plan, server_idx, overload, chaos] {
      const std::string user = "pop-" + std::to_string(sid);
      client::BrowserSession::Config bc;
      bc.presentation.record_events = false;
      // Pre-assigned trace ids keep QoE record keys identical at every
      // partition count (per-partition allocators would drift).
      bc.trace_id = static_cast<std::uint32_t>(sid) + 1;
      if (overload) {
        // Ride out the flash crowd: retry retryable rejections with capped
        // backoff, concede quality every other retry, and give up (typed
        // kAborted fate) once the plan's own jittered patience runs out.
        bc.recovery.admission_patience = plan.patience;
      }
      // Crashed sessions must reconnect for chaos runs to measure anything
      // beyond the crash itself.
      if (chaos) bc.recovery.enabled = true;
      st->session = std::make_unique<client::BrowserSession>(
          net, deployment.client_node(sid),
          deployment.server(server_idx).control_endpoint(), bc);
      st->session->set_subscription_form(student_form(user, "standard"));
      st->session->set_on_viewing([&psim, st, log, sid, plan] {
        if (st->viewing) return;
        st->viewing = true;
        log->push_back({psim.now().us(), sid, EventKind::kViewing, 0});
        if (plan.churn) {
          psim.schedule_at(psim.now() + plan.churn_after,
                           [&psim, st, log, sid] {
                             if (!st->viewing || st->finished || st->errored) {
                               return;
                             }
                             st->churned = true;
                             log->push_back({psim.now().us(), sid,
                                             EventKind::kChurn, 0});
                             st->session->disconnect();
                           });
        }
      });
      st->session->set_on_presentation_finished([&psim, st, log, sid] {
        if (st->finished || st->churned) return;
        st->finished = true;
        log->push_back({psim.now().us(), sid, EventKind::kFinish,
                        static_cast<std::int64_t>(st->session->outcome())});
        // A finished viewer leaves: the disconnect releases the session's
        // admission reservation so the freed capacity drains the wait queue.
        // Without it every completed session squats on its reservation to
        // the end of the run and the fleet "fills up" permanently. Deferred
        // one event — this callback fires from inside the presentation
        // runtime, which disconnect() destroys.
        psim.schedule_at(psim.now(), [st] {
          if (st->session != nullptr && !st->churned) st->session->disconnect();
        });
      });
      st->session->set_on_error([&psim, st, log, sid](const std::string&) {
        if (st->errored) return;
        st->errored = true;
        log->push_back({psim.now().us(), sid, EventKind::kError, 0});
      });
      st->session->set_on_admission_queued([&psim, log, sid](int position) {
        log->push_back({psim.now().us(), sid, EventKind::kQueued, position});
      });
      st->session->set_on_admission_retry([&psim, log, sid](int attempt) {
        log->push_back({psim.now().us(), sid, EventKind::kRetry, attempt});
      });
      log->push_back({psim.now().us(), sid, EventKind::kArrive, plan.doc});
      st->session->connect(user, "secret-" + user);
      st->session->queue_document("doc-" +
                                  std::to_string(plan.doc + 1));
      check_impatience(psim, st, log, static_cast<std::size_t>(sid),
                       plan.patience);
    });
  }

  if (parallel) {
    exec.run_until(cfg.run_for, threads);
  } else {
    sims[0]->run_until(cfg.run_for);
  }

  // --- flush: canonical log, fates, fingerprint, merged telemetry ----------
  PopulationResult r;
  r.lookahead = lookahead;
  if (parallel) {
    r.windows = exec.stats().windows;
    r.messages = exec.stats().messages;
  }
  for (const auto& s : sims) r.events_executed += s->executed();

  for (auto& st : states) {
    if (st.session != nullptr) st.session->finalize_qoe();
    if (st.errored) {
      // Typed fate split: a terminal admission rejection (immediate, retry
      // budget/patience exhausted, or queue deadline/crash while parked) is
      // an overload outcome, not a protocol failure.
      const bool admission_fate =
          st.session != nullptr && !st.session->last_status().ok() &&
          st.session->last_status().error().code ==
              util::Error::Code::kAdmissionRejected;
      if (admission_fate) {
        ++r.rejected;
      } else {
        ++r.failed;
      }
    } else if (st.abandoned) {
      ++r.abandoned;
    } else if (st.churned) {
      ++r.churned;
    } else if (st.finished) {
      if (st.session->outcome() == telemetry::QoeOutcome::kCompleted) {
        ++r.completed;
      } else {
        ++r.degraded;
      }
    } else {
      ++r.unfinished;
    }
  }
  for (int s = 0; s < cfg.servers; ++s) {
    const server::AdmissionControl& adm = deployment.server(s).admission();
    r.admission_rejections += adm.rejected_count();
    r.queued_total += adm.queued_total();
    r.queue_grants += adm.queue_grants();
    r.queue_timeouts += adm.queue_timeouts();
    r.degraded_grants += adm.degraded_count();
  }
  for (auto& st : states) {
    if (st.session != nullptr) r.admission_retries += st.session->admission_retries();
  }
  if (injector != nullptr) r.faults_injected = injector->stats().injected;

  std::vector<LogEntry> log;
  for (auto& part_log : logs) {
    log.insert(log.end(), part_log.begin(), part_log.end());
  }
  // Canonical order is a pure function of simulation outcomes — which
  // partition's vector an entry sat in never shows through.
  std::sort(log.begin(), log.end(), [](const LogEntry& a, const LogEntry& b) {
    return std::tie(a.t_us, a.session, a.kind, a.a) <
           std::tie(b.t_us, b.session, b.kind, b.a);
  });

  // Fold the per-partition QoE collectors into one before the summary rows so
  // each session's QoE record (split field-disjointly across partitions) is
  // whole. Only QoE is folded: the partition tracers and metrics are not
  // exported here.
  telemetry::QoeCollector root_qoe;
  if (cfg.telemetry) {
    for (const auto& hub : hubs) root_qoe.merge_from(hub->qoe());
  }

  std::string csv = "t_us,session,event,a\n";
  for (const LogEntry& e : log) {
    csv += std::to_string(e.t_us);
    csv += ',';
    csv += std::to_string(e.session);
    csv += ',';
    csv += kind_name(e.kind);
    csv += ',';
    csv += std::to_string(e.a);
    csv += '\n';
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto* rec = cfg.telemetry
                          ? root_qoe.find(static_cast<std::uint32_t>(i) + 1)
                          : nullptr;
    csv += "S,";
    csv += std::to_string(i);
    csv += ',';
    csv += std::to_string(static_cast<int>(
        states[i].session != nullptr ? states[i].session->outcome()
                                     : telemetry::QoeOutcome::kPending));
    csv += ',';
    csv += std::to_string(rec != nullptr ? rec->fresh_slots : 0);
    csv += ',';
    csv += std::to_string(rec != nullptr ? rec->total_slots : 0);
    csv += ',';
    csv += std::to_string(rec != nullptr ? rec->rebuffer_count : 0);
    csv += ',';
    csv += std::to_string(rec != nullptr ? rec->admission_retries : 0);
    csv += ',';
    // Queue wait as integer microseconds: deterministic, fingerprintable.
    csv += std::to_string(
        rec != nullptr
            ? static_cast<std::int64_t>(rec->queue_wait_ms * 1000.0)
            : 0);
    csv += '\n';
  }
  r.events_csv = std::move(csv);

  const net::Network::Stats net_stats = net.stats();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  h = fnv1a_bytes(h, r.events_csv);
  h = fnv1a_mix(h, static_cast<std::uint64_t>(net_stats.sent));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(net_stats.delivered));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(net_stats.dropped_no_route));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(net_stats.dropped_no_socket));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.admission_rejections));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.completed));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.degraded));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.churned));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.abandoned));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.rejected));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.failed));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.unfinished));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.queued_total));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.queue_grants));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.queue_timeouts));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.degraded_grants));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.admission_retries));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(r.faults_injected));
  r.fingerprint = h;

  if (cfg.telemetry) r.qoe_json = root_qoe.to_json();

  const media::FrameCache::Stats cache_stats = cache->stats();
  r.cache_hits = cache_stats.hits;
  r.cache_misses = cache_stats.misses;

  // Sessions hold network/simulator references; tear them down before the
  // deployment and kernels unwind.
  for (auto& st : states) st.session.reset();
  return r;
}

}  // namespace hyms::hermes
