#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/time.hpp"

namespace hyms::telemetry {

/// Typed terminal fate of one session, the answer to "did the user get
/// their presentation?": client::BrowserSession reports it and the QoE plane
/// records it. It lives in the telemetry layer so the QoE plane has no
/// dependency on the client stack (tests fill records directly).
enum class QoeOutcome : std::uint8_t {
  kPending = 0,  // still in flight (or never viewed a document)
  kCompleted,    // presentation finished at the originally granted quality
  kDegraded,     // finished, but re-admission forced lower quality floors
  kAborted,      // recovery or admission retry budget exhausted; gave up
};
[[nodiscard]] std::string_view to_string(QoeOutcome outcome);

/// Number of delivered-quality levels tracked in the distribution (level 0 =
/// full quality; matches the grading ladder used by the stream sessions).
inline constexpr int kQoeLevels = 4;

/// Per-session QoE record, keyed by the session's trace id. Fields default
/// to "unset" sentinels (-1 for one-shot latencies/ratios, 0 for counters)
/// so records filled from different partitions merge field-wise with
/// commutative rules (see QoeCollector::add).
struct QoeRecord {
  std::uint32_t trace_id = 0;
  std::string session;        // human label, e.g. user name or "seed/10017"
  double startup_ms = -1.0;   // request -> viewing; <0 = never reached
  int rebuffer_count = 0;
  double rebuffer_ms = 0.0;   // total stall time inside rebuffer pauses
  double play_ms = 0.0;       // playing-span wall time (sim)
  double max_skew_ms = 0.0;   // worst inter-stream skew observed
  std::int64_t fresh_slots = 0;
  std::int64_t total_slots = 0;
  int quality_changes = 0;    // degrade + upgrade transitions
  int level_slots[kQoeLevels] = {0, 0, 0, 0};  // delivered-quality samples
  int recoveries = 0;
  int admission_retries = 0;   // rejections the client retried past
  double queue_wait_ms = 0.0;  // sim time parked in an admission wait queue
  QoeOutcome outcome = QoeOutcome::kPending;
  /// Flight-recorder dump: populated by QoeCollector::seal only when the
  /// outcome is degraded/aborted; empty (ring freed) on completed.
  std::vector<std::string> black_box;

  [[nodiscard]] double rebuffer_ratio() const {
    const double denom = play_ms + rebuffer_ms;
    return denom > 0.0 ? rebuffer_ms / denom : 0.0;
  }
  [[nodiscard]] double fresh_ratio() const {
    return total_slots > 0
               ? static_cast<double>(fresh_slots) /
                     static_cast<double>(total_slots)
               : -1.0;
  }
};

/// Fleet SLO targets; a session is compliant when it completed AND met every
/// per-metric target below.
struct SloTargets {
  double startup_ms = 2000.0;
  double rebuffer_ratio = 0.02;
  double max_skew_ms = 120.0;
  double min_fresh_ratio = 0.90;
  double target_compliance = 0.99;  // the SLO itself; sets the error budget
};

/// Distribution summary of one metric across the fleet. Percentiles use
/// linear interpolation on the sorted sample (p50 of {1,2} = 1.5), which is
/// deterministic and matches numpy's default.
struct SloStat {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, mean = 0.0, max = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] SloStat slo_stat(std::vector<double> values);

struct SloReport {
  std::size_t sessions = 0;
  int completed = 0, degraded = 0, aborted = 0, pending = 0;
  SloStat startup_ms, rebuffer_ratio, max_skew_ms, fresh_ratio;
  double compliance = 1.0;          // fraction of sessions meeting all targets
  double error_budget_burn = 0.0;   // (1-compliance)/(1-target_compliance)
  SloTargets targets;
};

/// Per-run QoE plane: one record per session plus the flight recorder — a
/// bounded ring of recent structured events per session (state transitions,
/// rate changes, timeouts) and one world-scoped ring (fault hits). Sealing a
/// session with outcome completed frees its ring; degraded/aborted dumps the
/// ring, merged chronologically with the world ring, into the record's
/// black_box — so 200-seed chaos sweeps stay debuggable without full tracing.
///
/// Recording is passive (no simulator events) and merge_from is field-wise
/// commutative over disjoint fills, so per-partition collectors under
/// sim::ParallelExec fold into byte-identical reports at any thread count.
class QoeCollector {
 public:
  /// Find-or-create the record for `trace_id`; a non-empty label fills the
  /// session name if it is still unset.
  QoeRecord& session(std::uint32_t trace_id, std::string_view label = {});
  [[nodiscard]] QoeRecord* find(std::uint32_t trace_id);
  [[nodiscard]] const QoeRecord* find(std::uint32_t trace_id) const;
  /// Insert-or-merge a finished record (counters add, latencies/skews max,
  /// outcome takes the worse classification, black_box concatenates).
  void add(const QoeRecord& record);

  // --- flight recorder ------------------------------------------------------
  void set_ring_capacity(std::size_t cap) { ring_capacity_ = cap; }
  [[nodiscard]] std::size_t ring_capacity() const { return ring_capacity_; }
  void note_event(std::uint32_t trace_id, Time at, std::string_view text);
  /// World-scoped events (fault injections, server crashes) are merged into
  /// every abnormal session's dump.
  void note_world_event(Time at, std::string_view text);
  /// Session reached a terminal outcome: completed frees the ring,
  /// degraded/aborted dumps it (plus world events) into black_box.
  /// Idempotent — only the first seal of a trace id dumps; later calls can
  /// still worsen the recorded outcome but never duplicate the dump.
  void seal(std::uint32_t trace_id, QoeOutcome outcome);
  /// Number of events currently buffered for `trace_id` (tests).
  [[nodiscard]] std::size_t ring_size(std::uint32_t trace_id) const;

  [[nodiscard]] const std::vector<QoeRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  [[nodiscard]] SloReport report(const SloTargets& targets = {}) const;
  /// Deterministic JSON export ("hyms-slo-v1"): fleet SLO block + per-session
  /// records sorted by (trace_id, session). Byte-identical across partition
  /// and thread counts for the same simulated run.
  [[nodiscard]] std::string to_json(const SloTargets& targets = {}) const;

  void merge_from(const QoeCollector& other);

 private:
  struct RingEntry {
    std::int64_t ts_us;
    std::string text;
  };
  struct Ring {
    std::vector<RingEntry> entries;  // circular once full
    std::size_t next = 0;
    std::int64_t seen = 0;
  };
  void push(Ring& ring, std::int64_t ts_us, std::string_view text);
  [[nodiscard]] std::vector<RingEntry> chronological(const Ring& ring) const;

  std::vector<QoeRecord> records_;
  std::unordered_map<std::uint32_t, std::size_t> index_;
  std::unordered_map<std::uint32_t, Ring> rings_;
  std::unordered_set<std::uint32_t> sealed_;
  Ring world_;
  std::size_t ring_capacity_ = 64;
};

}  // namespace hyms::telemetry
