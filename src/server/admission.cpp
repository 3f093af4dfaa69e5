#include "server/admission.hpp"

#include <algorithm>
#include <utility>

namespace hyms::server {

namespace {

/// Base of the retry-after hint handed to rejected clients; scaled by the
/// queue depth so a deeper backlog pushes retries further out.
constexpr Time kRetryAfterBase = Time::msec(400);
/// Ceiling on the retry-after hint. Without one, a full queue of N waiters
/// quotes base*(1+N) — tens of seconds at realistic depths, which overshoots
/// any client patience budget and turns "come back later" into "never come
/// back".
constexpr Time kRetryAfterCap = Time::sec(3);

}  // namespace

AdmissionControl::AdmissionControl(Config config, sim::Simulator* sim)
    : config_(config), sim_(sim) {
  if (sim_ != nullptr) {
    if (auto* hub = sim_->telemetry()) {
      auto& tr = hub->tracer();
      trace_track_ = tr.track("server/admission");
      n_admit_ = tr.name("admit");
      n_reject_ = tr.name("reject");
      n_reserved_ = tr.name("reserved_bps");
      n_queue_ = tr.name("queue");
      n_queue_depth_ = tr.name("queue_depth");
    }
  }
}

double AdmissionControl::load_excluding(const std::string& key) const {
  double current = reserved_;
  if (auto it = reservations_.find(key); it != reservations_.end()) {
    current -= it->second;
  }
  return current;
}

bool AdmissionControl::try_reserve(const Request& request, Decision& decision) {
  const double ceiling = config_.capacity_bps * request.tier_utilization;
  const double current = load_excluding(request.key);
  // Ladder walk order is the §4 policy decision. Unloaded, best rung first:
  // spare capacity buys full quality. Under pressure — a populated wait
  // queue, or reservations already near the ceiling — deepest rung first:
  // compressing everyone a little serves several times more users than
  // granting the head full quality while the backlog expires behind it.
  const bool pressure =
      !waiters_.empty() ||
      current >= config_.pressure_utilization * config_.capacity_bps;
  const std::size_t n = request.ladder.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& rung = request.ladder[pressure ? n - 1 - i : i];
    if (current + rung.demand_bps > ceiling) continue;
    ++admitted_;
    if (rung.notches > 0) ++degraded_;
    // Replace any previous reservation under the same key (a session
    // re-requesting a new document swaps its reservation, not stacks it).
    if (auto it = reservations_.find(request.key); it != reservations_.end()) {
      reserved_ -= it->second;
      reservations_.erase(it);
    }
    if (reserved_ < 0) reserved_ = 0;
    reservations_[request.key] = rung.demand_bps;
    reserved_ += rung.demand_bps;
    decision.admitted = true;
    decision.outcome =
        rung.notches > 0 ? Outcome::kDegraded : Outcome::kAdmitted;
    decision.degraded_notches = rung.notches;
    decision.reserved_after_bps = reserved_;
    note_decision(n_admit_, rung.demand_bps);
    return true;
  }
  return false;
}

AdmissionControl::Decision AdmissionControl::evaluate(const Request& request,
                                                      WaiterHooks hooks) {
  Decision decision;
  decision.demand_bps =
      request.ladder.empty() ? 0.0 : request.ladder.front().demand_bps;
  if (!request.ladder.empty() && try_reserve(request, decision)) {
    return decision;
  }

  // No rung fits. Park the request in the wait queue when the caller can
  // handle a deferred grant and the bounded queue has room.
  if (hooks.on_grant && config_.queue_limit > 0 && sim_ != nullptr &&
      waiters_.size() < config_.queue_limit) {
    Waiter waiter;
    waiter.seq = next_waiter_seq_++;
    waiter.request = request;
    waiter.hooks = std::move(hooks);
    waiter.enqueued_at = sim_->now();
    waiter.deadline = std::make_unique<sim::Timer>(*sim_);
    waiter.deadline->arm_at(sim_->now() + config_.queue_deadline,
                            [this, seq = waiter.seq] { expire_waiter(seq); });
    // Priority order (tier priority desc, arrival seq asc); the new waiter
    // has the largest seq, so it lands after its priority class.
    const auto pos = std::upper_bound(
        waiters_.begin(), waiters_.end(), waiter,
        [](const Waiter& a, const Waiter& b) {
          if (a.request.priority != b.request.priority) {
            return a.request.priority > b.request.priority;
          }
          return a.seq < b.seq;
        });
    const int position = static_cast<int>(pos - waiters_.begin());
    waiters_.insert(pos, std::move(waiter));
    ++queued_total_;
    decision.outcome = Outcome::kQueued;
    decision.queue_position = position;
    decision.reserved_after_bps = reserved_;
    decision.reason = "admission queued: waiting for capacity (position " +
                      std::to_string(position) + ")";
    if (sim_ != nullptr) {
      if (auto* hub = sim_->telemetry()) {
        auto& tr = hub->tracer();
        tr.instant(trace_track_, n_queue_, sim_->now(), decision.demand_bps);
      }
    }
    note_queue_depth();
    return decision;
  }

  ++rejected_;
  const double ceiling = config_.capacity_bps * request.tier_utilization;
  const double current = load_excluding(request.key);
  decision.outcome = Outcome::kRejected;
  decision.retry_after_us = retry_after_us();
  decision.reason = "admission rejected: demand " +
                    std::to_string(decision.demand_bps / 1e6) +
                    " Mbps over ceiling " + std::to_string(ceiling / 1e6) +
                    " Mbps (reserved " + std::to_string(current / 1e6) + ")";
  decision.reserved_after_bps = reserved_;
  note_decision(n_reject_, decision.demand_bps);
  return decision;
}

void AdmissionControl::drain_queue() {
  if (draining_ || waiters_.empty()) return;
  draining_ = true;
  // Strict head-of-line: grant from the front of the priority/FIFO order
  // while the head fits; the first non-fitting head blocks the rest so a
  // small request cannot starve a big one queued ahead of it.
  std::vector<std::pair<WaiterHooks, Decision>> grants;
  while (!waiters_.empty()) {
    Waiter& head = waiters_.front();
    Decision decision;
    decision.demand_bps = head.request.ladder.empty()
                              ? 0.0
                              : head.request.ladder.front().demand_bps;
    if (!try_reserve(head.request, decision)) break;
    ++queue_grants_;
    if (sim_ != nullptr) {
      decision.reason = "admission granted from queue after " +
                        std::to_string((sim_->now() - head.enqueued_at).us()) +
                        " us";
    }
    grants.emplace_back(std::move(head.hooks), std::move(decision));
    waiters_.erase(waiters_.begin());  // cancels its deadline
  }
  draining_ = false;
  if (!grants.empty()) note_queue_depth();
  for (auto& [hooks, decision] : grants) {
    if (hooks.on_grant) hooks.on_grant(decision);
  }
}

void AdmissionControl::expire_waiter(std::uint64_t seq) {
  const auto it =
      std::find_if(waiters_.begin(), waiters_.end(),
                   [seq](const Waiter& w) { return w.seq == seq; });
  if (it == waiters_.end()) return;
  Waiter waiter = std::move(*it);
  waiters_.erase(it);
  ++queue_timeouts_;
  ++rejected_;
  Decision decision;
  decision.demand_bps = waiter.request.ladder.empty()
                            ? 0.0
                            : waiter.request.ladder.front().demand_bps;
  decision.outcome = Outcome::kRejected;
  decision.retry_after_us = retry_after_us();
  decision.reserved_after_bps = reserved_;
  decision.reason =
      "admission rejected: queue deadline expired after " +
      std::to_string(config_.queue_deadline.us() / 1000) + " ms";
  note_decision(n_reject_, decision.demand_bps);
  note_queue_depth();
  if (waiter.hooks.on_timeout) waiter.hooks.on_timeout(decision);
}

bool AdmissionControl::cancel_waiter(const std::string& key) {
  const auto it =
      std::find_if(waiters_.begin(), waiters_.end(),
                   [&key](const Waiter& w) { return w.request.key == key; });
  if (it == waiters_.end()) return false;
  waiters_.erase(it);
  note_queue_depth();
  return true;
}

void AdmissionControl::fail_waiters(const util::Error& error) {
  if (waiters_.empty()) return;
  std::vector<Waiter> failed = std::move(waiters_);
  waiters_.clear();
  for (Waiter& waiter : failed) waiter.deadline->cancel();
  waiters_failed_ += static_cast<std::int64_t>(failed.size());
  note_queue_depth();
  for (Waiter& waiter : failed) {
    if (waiter.hooks.on_failed) waiter.hooks.on_failed(error);
  }
}

std::int64_t AdmissionControl::retry_after_us() const {
  return std::min(kRetryAfterBase.us() *
                      static_cast<std::int64_t>(1 + waiters_.size()),
                  kRetryAfterCap.us());
}

void AdmissionControl::note_decision(telemetry::NameId which,
                                     double demand_bps) {
  if (sim_ == nullptr) return;
  if (auto* hub = sim_->telemetry()) {
    auto& tr = hub->tracer();
    tr.instant(trace_track_, which, sim_->now(), demand_bps);
    tr.counter(trace_track_, n_reserved_, sim_->now(), reserved_);
  }
}

void AdmissionControl::note_queue_depth() {
  if (sim_ == nullptr) return;
  if (auto* hub = sim_->telemetry()) {
    auto& tr = hub->tracer();
    tr.counter(trace_track_, n_queue_depth_, sim_->now(),
               static_cast<double>(waiters_.size()));
  }
}

void AdmissionControl::flush_telemetry() {
  if (sim_ == nullptr) return;
  auto* hub = sim_->telemetry();
  if (hub == nullptr) return;
  auto& m = hub->metrics();
  m.set("server/admission/admitted", static_cast<double>(admitted_));
  m.set("server/admission/rejected", static_cast<double>(rejected_));
  m.set("server/admission/reserved_bps", reserved_);
  m.set("server/admission/degraded", static_cast<double>(degraded_));
  m.set("server/admission/queued", static_cast<double>(queued_total_));
  m.set("server/admission/queue_grants", static_cast<double>(queue_grants_));
  m.set("server/admission/queue_timeouts",
        static_cast<double>(queue_timeouts_));
  m.set("server/admission/waiters_failed",
        static_cast<double>(waiters_failed_));
  m.set("server/admission/queue_depth", static_cast<double>(waiters_.size()));
}

void AdmissionControl::release(const std::string& key) {
  auto it = reservations_.find(key);
  if (it != reservations_.end()) {
    reserved_ -= it->second;
    if (reserved_ < 0) reserved_ = 0;
    reservations_.erase(it);
  }
  // Freed capacity (or even a no-op release while capacity is available)
  // drains the wait queue head-of-line.
  drain_queue();
}

void AdmissionControl::reset() {
  waiters_.clear();
  reservations_.clear();
  reserved_ = 0.0;
}

}  // namespace hyms::server
