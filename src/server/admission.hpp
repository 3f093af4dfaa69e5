#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/result.hpp"

namespace hyms::server {

/// Connection admission control (§4): a new presentation is admitted when
/// the load it would add — evaluated at the *floor* quality the user already
/// accepted, i.e. the minimum feasible demand — fits under the utilization
/// ceiling of the user's pricing tier. Higher tiers get a higher ceiling,
/// implementing "a user who pays more should be serviced, even though it
/// affects the other users".
///
/// Under overload the controller no longer "rejects and forgets": a request
/// that does not fit first walks a *degradation ladder* of lowered quality
/// floors, then (if configured) waits in a bounded priority/FIFO queue with
/// a per-request sim-time deadline, and only then is rejected with a
/// retry-after hint. Capacity freed by `release` drains the queue
/// head-of-line, so waiters are granted in (tier priority, arrival) order.
class AdmissionControl {
 public:
  struct Config {
    double capacity_bps = 10e6;  // service egress capacity estimate
    /// Wait-queue bound; 0 keeps the legacy reject-only behavior.
    std::size_t queue_limit = 0;
    /// How long a queued request may wait before it is rejected.
    Time queue_deadline = Time::sec(4);
    /// Degradation-ladder depth offered by the server before queueing or
    /// rejecting: how many quality-floor notches the caller should append
    /// as ladder rungs below the full request. 0 disables the ladder.
    int degrade_steps = 0;
    /// Reservation fraction of capacity at which the ladder flips from
    /// best-rung-first to deepest-rung-first (graceful degradation: under
    /// pressure, compress everyone a little to serve several times more
    /// users). A populated wait queue forces pressure regardless.
    double pressure_utilization = 0.85;
  };

  enum class Outcome : std::uint8_t {
    kAdmitted = 0,  // full-quality reservation made
    kDegraded = 1,  // admitted at a lowered quality floor
    kQueued = 2,    // parked in the wait queue; a grant/timeout will follow
    kRejected = 3,  // terminal; come back after retry_after_us
  };

  struct Decision {
    bool admitted = false;  // kAdmitted or kDegraded
    std::string reason;
    double demand_bps = 0.0;
    double reserved_after_bps = 0.0;
    Outcome outcome = Outcome::kRejected;
    int degraded_notches = 0;      // ladder steps conceded (kDegraded)
    std::int64_t retry_after_us = 0;  // backoff hint (kRejected)
    int queue_position = -1;       // 0-based position (kQueued)
  };

  /// One rung of the degradation ladder: the demand this request would
  /// reserve after conceding `notches` quality-floor steps. Rung 0 is the
  /// full request; callers order rungs best-first.
  struct Candidate {
    int notches = 0;
    double demand_bps = 0.0;
  };

  struct Request {
    std::string key;
    double tier_utilization = 1.0;
    int priority = 0;  // higher = served under more load (tier priority)
    std::vector<Candidate> ladder;
  };

  /// Callbacks for queued requests. `on_grant` must be set for a request to
  /// be queueable at all (a caller that cannot handle a deferred grant gets
  /// the legacy admit-or-reject answer). All hooks fire outside the queue
  /// mutation, after the reservation state is consistent.
  struct WaiterHooks {
    std::function<void(const Decision&)> on_grant;
    std::function<void(const Decision&)> on_timeout;
    std::function<void(const util::Error&)> on_failed;
  };

  /// `sim`, if given, provides the telemetry hub (and timestamps) for
  /// admit/reject instants on the "server/admission" track — and the event
  /// calendar for queue deadlines (queueing requires a simulator).
  explicit AdmissionControl(Config config, sim::Simulator* sim = nullptr);

  /// Evaluate a request against the ladder: best rung that fits wins
  /// (kAdmitted at rung 0, kDegraded below). Otherwise the request is
  /// queued (if hooks.on_grant is set and the bounded queue has room) or
  /// rejected with a retry-after hint.
  Decision evaluate(const Request& request, WaiterHooks hooks = {});

  void release(const std::string& key);
  /// Remove `key` from the wait queue without a decision callback (the
  /// client went away on its own). Returns true if a waiter was cancelled.
  bool cancel_waiter(const std::string& key);
  /// Fail every queued waiter with a typed error (server crash: the queue
  /// lives in RAM and dies with the process). Cancels all deadline timers;
  /// `on_failed` hooks run after the queue is cleared.
  void fail_waiters(const util::Error& error);
  /// Drop every reservation (server crash: reservations live in RAM and die
  /// with the process; admit/reject counters survive as telemetry). Queued
  /// waiters are silently discarded — use `fail_waiters` first when clients
  /// must learn about the loss.
  void reset();

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] double reserved_bps() const { return reserved_; }
  [[nodiscard]] std::int64_t admitted_count() const { return admitted_; }
  [[nodiscard]] std::int64_t rejected_count() const { return rejected_; }
  [[nodiscard]] std::int64_t degraded_count() const { return degraded_; }
  [[nodiscard]] std::int64_t queued_total() const { return queued_total_; }
  [[nodiscard]] std::int64_t queue_grants() const { return queue_grants_; }
  [[nodiscard]] std::int64_t queue_timeouts() const { return queue_timeouts_; }
  [[nodiscard]] std::int64_t waiters_failed() const { return waiters_failed_; }
  [[nodiscard]] std::size_t queue_depth() const { return waiters_.size(); }

  /// Snapshot admission counters into the telemetry hub. No-op without one.
  void flush_telemetry();

 private:
  struct Waiter {
    std::uint64_t seq = 0;  // FIFO tiebreak within a priority class
    Request request;
    WaiterHooks hooks;
    Time enqueued_at = Time::zero();
    /// Held by pointer: waiters move inside the sorted vector, and an armed
    /// Timer must stay put.
    std::unique_ptr<sim::Timer> deadline;
  };

  /// Reserve the best-fitting ladder rung, or return false. On success
  /// fills the admitted/degraded fields of `decision`.
  bool try_reserve(const Request& request, Decision& decision);
  [[nodiscard]] double load_excluding(const std::string& key) const;
  /// Grant queue heads that now fit (strict head-of-line per the
  /// priority/FIFO order); invokes on_grant hooks after the mutation.
  void drain_queue();
  void expire_waiter(std::uint64_t seq);
  [[nodiscard]] std::int64_t retry_after_us() const;
  void note_decision(telemetry::NameId which, double demand_bps);
  void note_queue_depth();

  Config config_;
  sim::Simulator* sim_ = nullptr;
  double reserved_ = 0.0;
  std::map<std::string, double> reservations_;
  std::vector<Waiter> waiters_;  // kept sorted (priority desc, seq asc)
  std::uint64_t next_waiter_seq_ = 0;
  bool draining_ = false;
  std::int64_t admitted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t degraded_ = 0;
  std::int64_t queued_total_ = 0;
  std::int64_t queue_grants_ = 0;
  std::int64_t queue_timeouts_ = 0;
  std::int64_t waiters_failed_ = 0;

  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_admit_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_reject_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_reserved_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_queue_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_queue_depth_ = telemetry::kInvalidTraceId;
};

}  // namespace hyms::server
