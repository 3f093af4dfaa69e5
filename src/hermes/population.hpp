#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "media/frame_cache.hpp"
#include "server/multimedia_server.hpp"
#include "util/time.hpp"

namespace hyms::hermes {

/// A shared-world session population: many full BrowserSession actors (real
/// protocol stack, RTP/TCP, QoS feedback) arriving against one server fleet
/// under a non-stationary workload — Poisson arrivals shaped by a diurnal
/// intensity, a flash-crowd cohort piling onto the most popular document,
/// Zipf document popularity, impatient abandonment and mid-view churn.
///
/// The entire arrival plan is pre-generated from `seed` before the run, so
/// it is a pure function of the config — independent of partition count and
/// thread count. Running the same config at partitions x threads {1,2,4}...
/// must produce byte-identical events_csv / fingerprint / qoe_json; that is
/// the correctness gate bench_population and test_population enforce before
/// any timing is reported.
///
/// Known exception (open; ROADMAP item 1): the benchmark's crowd shape (4
/// servers, 60 Mbps admission capacity, 12 documents) diverges from the
/// sequential kernel on 4 partitions at 400 sessions, seed 2 — events_csv
/// first differs at session 294's `error` row — and at 1000 sessions in
/// overload_chaos, seed 1 (fingerprint 0xe83d914c44b9e315 against the
/// sequential 0xdfcec2c606685d79). The cause: two requests from clients on
/// different partitions reach the backbone router in the same microsecond.
/// A conduit link (a link whose two ends sit on different partitions) arms
/// its calendar event when the destination partition injects its mail at
/// the start of its next window, in (earliest, source partition, sequence)
/// order; the sequential kernel arms the same event at send time. So the tie
/// can resolve either way.
struct PopulationConfig {
  int sessions = 64;
  int servers = 2;
  /// Distinct documents, Zipf-ranked: doc-1 is the most popular and the
  /// flash-crowd target. Every server carries every document under the same
  /// media-source names, so the shared FrameCache deduplicates synthesis
  /// across servers (and across partition threads).
  int documents = 8;
  double zipf_s = 1.1;
  std::uint64_t seed = 1;
  /// Partition count for the deployment (1 = plain sequential kernel).
  std::uint32_t partitions = 1;
  Time run_for = Time::sec(30);
  /// Arrivals land in [0, arrival_window).
  Time arrival_window = Time::sec(12);
  /// Diurnal modulation depth in [0,1): intensity 1 + depth*sin(2*pi*t/W).
  double diurnal_depth = 0.6;
  /// Fraction of sessions that form the flash crowd: they all request doc-1
  /// within [flash_at, flash_at + flash_width).
  double flash_fraction = 0.15;
  Time flash_at = Time::sec(6);
  Time flash_width = Time::msec(500);
  /// A session that has not reached viewing this long after arrival gives up
  /// (jittered +-25% per session from the plan RNG).
  Time patience = Time::sec(8);
  /// Fraction of sessions that churn: disconnect mid-view after watching a
  /// plan-drawn fraction of the document.
  double churn_fraction = 0.3;
  /// Document shape (mirrors the bench lecture: slide image + synced AV).
  int doc_seconds = 6;
  int video_kbps = 700;
  /// Install one telemetry hub per partition. It records per-session QoE
  /// only (qoe_json and the QoE columns of events_csv); span tracing stays
  /// off.
  bool telemetry = true;
  /// Overload control: servers get an admission wait queue + degradation
  /// ladder (unless the server_template already configured them) and every
  /// session retries retryable admission rejections with capped exponential
  /// backoff, bounded quality concessions, and a patience budget (its
  /// `recovery.admission_patience` is the plan's jittered patience). Sessions
  /// parked in a server wait queue at their impatience bound keep waiting
  /// (the server's queue deadline bounds the stay); sessions mid-retry get
  /// a few patience extensions before walking — the user can see the
  /// system is alive, so they hang on for the quoted retry.
  bool overload_control = false;
  /// Chaos: arm a deterministic FaultPlan against the population — server 0
  /// crashes 800 ms into the flash crowd (with its wait queue populated) and
  /// restarts 1.5 s later; the backbone link to server 1 flaps 3 s in. Also
  /// enables client outage recovery so crashed sessions reconnect; a refused
  /// re-admission then meets the same retry policy as any other rejection.
  /// Runs on the partitioned executor too — the byte-identity gate applies
  /// as ever.
  bool chaos = false;
  /// Frame cache shared by EVERY server in the fleet regardless of which
  /// partition it lives on (null = create one of frame_cache_bytes).
  std::shared_ptr<media::FrameCache> frame_cache;
  std::size_t frame_cache_bytes = 64ull << 20;
  server::MultimediaServer::Config server_template;
};

struct PopulationResult {
  /// FNV-1a over the canonical event log + merged network counters +
  /// admission rejections. Identical across partition/thread counts. The
  /// log's per-session `S,` rows carry QoE columns (zero with telemetry
  /// off), so the fingerprint differs between `telemetry` on and off; the
  /// event rows and events_executed do not.
  std::uint64_t fingerprint = 0;
  /// Canonical, thread-schedule-independent event log: per-event rows sorted
  /// by (t_us, session, kind) plus one summary row per session.
  std::string events_csv;
  /// Merged QoE/SLO report (empty when telemetry is off).
  std::string qoe_json;

  // Session fates (sum == sessions).
  std::int64_t completed = 0;   // finished at granted quality
  std::int64_t degraded = 0;    // finished below granted quality
  std::int64_t churned = 0;     // left mid-view by plan
  std::int64_t abandoned = 0;   // gave up before viewing started
  std::int64_t rejected = 0;    // terminal admission rejection (typed fate)
  std::int64_t failed = 0;      // other protocol/transport error
  std::int64_t unfinished = 0;  // still in flight at the horizon

  std::int64_t admission_rejections = 0;
  // Overload-control plane (all zero unless overload_control / a queueing
  // server_template is in force).
  std::int64_t queued_total = 0;     // requests parked in a wait queue
  std::int64_t queue_grants = 0;     // waiters granted when load drained
  std::int64_t queue_timeouts = 0;   // waiters expired at their deadline
  std::int64_t degraded_grants = 0;  // admissions below the asked floor
  std::int64_t admission_retries = 0;  // client-side rejection retries
  std::int64_t faults_injected = 0;    // chaos plan events applied
  std::uint64_t events_executed = 0;
  /// Parallel-executor accounting (0 when partitions == 1).
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  /// Host seconds each partition spent injecting and running, and seconds
  /// the executor's threads waited at the window barrier (empty and 0 when
  /// partitions == 1). Host timing: never part of the fingerprint or of any
  /// identity check.
  std::vector<double> partition_busy_s;
  double barrier_wait_s = 0.0;
  Time lookahead;
  /// Shared-cache effectiveness. Reported only — hit/miss split depends on
  /// thread timing, so it is deliberately excluded from the fingerprint.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

/// Run the population to `cfg.run_for` on `cfg.partitions` kernels advanced
/// on `threads` threads, the calling thread included (threads is ignored
/// when partitions == 1).
[[nodiscard]] PopulationResult run_population(const PopulationConfig& cfg,
                                              int threads = 1);

}  // namespace hyms::hermes
