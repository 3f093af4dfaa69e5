#include "net/link.hpp"

#include <algorithm>
#include <utility>

#include "util/log.hpp"

namespace hyms::net {

Link::Link(sim::Simulator& sim, sim::Simulator& deliver_sim,
           sim::ParallelExec* exec, std::uint32_t src_partition,
           std::uint32_t dst_partition, std::string name, LinkParams params,
           NodeId to_node, DeliverFn deliver, util::Rng rng, PayloadPool* pool)
    : sim_(sim), name_(std::move(name)), params_(std::move(params)),
      to_(to_node), deliver_(std::move(deliver)), rng_(rng), pool_(pool),
      deliver_sim_(deliver_sim), exec_(exec), src_partition_(src_partition),
      dst_partition_(dst_partition) {
  if (auto* hub = sim_.telemetry()) {
    auto& tr = hub->tracer();
    trace_track_ = tr.track("link/" + name_);
    n_queue_bytes_ = tr.name("queue_bytes");
    n_drop_queue_ = tr.name("drop/queue");
    n_drop_loss_ = tr.name("drop/loss");
    n_drop_down_ = tr.name("drop/down");
    n_train_ = tr.name("train");
  }
}

Time Link::serialization_time(std::size_t bytes) const {
  const double seconds =
      static_cast<double>(bytes) * 8.0 / params_.bandwidth_bps;
  return Time::seconds(seconds);
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  LOG_DEBUG << "link " << name_ << (up ? " up" : " down");
}

void Link::push_override(LinkParams params) {
  override_stack_.push_back(params_);
  set_params(std::move(params));
}

void Link::pop_override() {
  if (override_stack_.empty()) return;
  set_params(std::move(override_stack_.back()));
  override_stack_.pop_back();
}

void Link::drop_down(Packet&& pkt) {
  ++stats_.offered;
  ++stats_.dropped_down;
  LOG_TRACE << "link " << name_ << " down, dropping pkt " << pkt.id;
  if (auto* hub = sim_.telemetry()) {
    hub->tracer().instant(trace_track_, n_drop_down_, sim_.now());
  }
  if (pool_ != nullptr) pool_->release(std::move(pkt.payload));
}

void Link::transmit(Packet&& pkt) {
  if (!up_) {
    drop_down(std::move(pkt));
    return;
  }
  if (is_conduit()) {
    offer(std::move(pkt), sim_.now());
    flush_mailbox();
    return;
  }
  if (!params_.batching) {
    transmit_unbatched(std::move(pkt));
    return;
  }
  offer(std::move(pkt), sim_.now());
}

void Link::send_train(std::vector<Packet>& train) {
  if (!up_) {
    for (auto& pkt : train) drop_down(std::move(pkt));
    train.clear();
    return;
  }
  if (is_conduit()) {
    const Time now = sim_.now();
    mailbox_.reserve(mailbox_.size() + train.size());
    for (auto& pkt : train) offer(std::move(pkt), now);
    train.clear();
    flush_mailbox();
    return;
  }
  if (!params_.batching) {
    for (auto& pkt : train) transmit_unbatched(std::move(pkt));
    train.clear();
    return;
  }
  const Time now = sim_.now();
  calendar_.reserve(calendar_.size() + train.size());
  for (auto& pkt : train) offer(std::move(pkt), now);
  train.clear();
}

void Link::drain_transit(Time t) {
  auto* hub = sim_.telemetry();
  while (transit_head_ < transit_.size() &&
         transit_[transit_head_].finish <= t) {
    const TransitEntry& entry = transit_[transit_head_];
    queued_bytes_ -= entry.size;
    if (hub != nullptr) {
      // Historical timestamp: the sample carries the serialization-finish
      // instant the unbatched dequeue event would have fired at.
      hub->tracer().counter(trace_track_, n_queue_bytes_, entry.finish,
                            static_cast<double>(queued_bytes_));
    }
    ++transit_head_;
  }
  if (transit_head_ == transit_.size()) {
    transit_.clear();
    transit_head_ = 0;
  } else if (transit_head_ > transit_.size() / 2) {
    transit_.erase(transit_.begin(),
                   transit_.begin() + static_cast<std::ptrdiff_t>(transit_head_));
    transit_head_ = 0;
  }
}

void Link::offer(Packet&& pkt, Time t_offer) {
  // Retire finished serializations first so the queue-capacity check sees
  // the same occupancy the unbatched path's dequeue events would have left.
  drain_transit(t_offer);

  ++stats_.offered;
  const std::size_t size = pkt.wire_size();

  if (queued_bytes_ + size > params_.queue_capacity_bytes) {
    ++stats_.dropped_queue;
    LOG_TRACE << "link " << name_ << " queue drop pkt " << pkt.id;
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().instant(trace_track_, n_drop_queue_, t_offer);
    }
    if (pool_ != nullptr) pool_->release(std::move(pkt.payload));
    return;
  }
  if (params_.loss && params_.loss->drop(rng_)) {
    ++stats_.dropped_loss;
    LOG_TRACE << "link " << name_ << " random loss pkt " << pkt.id;
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().instant(trace_track_, n_drop_loss_, t_offer);
    }
    if (pool_ != nullptr) pool_->release(std::move(pkt.payload));
    return;
  }

  const Time start = std::max(t_offer, busy_until_);
  stats_.queueing_delay_ms.add((start - t_offer).to_ms());
  const Time finish = start + serialization_time(size);
  busy_until_ = finish;
  queued_bytes_ += size;
  transit_.push_back(TransitEntry{finish, size});

  if (params_.corruption_prob > 0 && !pkt.payload.empty() &&
      rng_.bernoulli(params_.corruption_prob)) {
    // Flip one bit of a random payload byte (classic line-noise model).
    const auto at = static_cast<std::size_t>(rng_.below(pkt.payload.size()));
    pkt.payload[at] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
    ++stats_.corrupted;
  }

  Time extra = Time::zero();
  if (params_.jitter_stddev > Time::zero() || params_.jitter_mean > Time::zero()) {
    const double j = rng_.normal(params_.jitter_mean.to_seconds(),
                                 params_.jitter_stddev.to_seconds());
    extra = Time::seconds(std::max(0.0, j));
  }
  const Time arrival = finish + params_.propagation + extra;

  if (auto* hub = sim_.telemetry()) {
    hub->tracer().counter(trace_track_, n_queue_bytes_, t_offer,
                          static_cast<double>(queued_bytes_));
  }

  if (is_conduit()) {
    // Admission arithmetic above is byte-identical to the local path; only
    // the hand-off differs. The packet waits in the mailbox until the
    // enclosing transmit()/send_train() posts the batch to the executor.
    mailbox_.push_back(PendingArrival{std::move(pkt), arrival});
    return;
  }
  insert_calendar(PendingArrival{std::move(pkt), arrival});
}

void Link::insert_calendar(PendingArrival&& item) {
  // Calendar insertion. Back-to-back bursts arrive monotonically, so the
  // common case is a push_back; jitter can reorder, handled by a stable
  // sorted insert (after equal arrivals — FIFO among ties, matching the
  // schedule-order semantics of per-packet arrival events).
  if (calendar_.size() == calendar_head_ ||
      item.arrival >= calendar_.back().arrival) {
    calendar_.push_back(std::move(item));
    if (calendar_.size() - calendar_head_ == 1) arm_chain();
    return;
  }
  const Time arrival = item.arrival;
  const auto pos = std::upper_bound(
      calendar_.begin() + static_cast<std::ptrdiff_t>(calendar_head_),
      calendar_.end(), arrival,
      [](Time t, const PendingArrival& it) { return t < it.arrival; });
  const bool new_head =
      pos == calendar_.begin() + static_cast<std::ptrdiff_t>(calendar_head_);
  calendar_.insert(pos, std::move(item));
  if (new_head) arm_chain();
}

void Link::flush_mailbox() {
  if (mailbox_.empty()) return;
  Time earliest = mailbox_.front().arrival;
  for (const PendingArrival& item : mailbox_) {
    earliest = std::min(earliest, item.arrival);
  }
  // earliest >= now + propagation >= now + lookahead, satisfying the
  // executor's post contract; the thunk runs at the next barrier with no
  // partition executing, so touching the calendar there is race-free.
  exec_->post(src_partition_, dst_partition_, earliest,
              [this, items = std::move(mailbox_)]() mutable {
                accept_mailed(std::move(items));
              });
  mailbox_ = {};
}

void Link::accept_mailed(std::vector<PendingArrival>&& items) {
  for (PendingArrival& item : items) insert_calendar(std::move(item));
}

void Link::arm_chain() {
  chain_timer_.cancel();
  if (calendar_head_ == calendar_.size()) return;
  chain_timer_.arm_at(calendar_[calendar_head_].arrival,
                      [this] { fire_chain(); });
}

void Link::fire_chain() {
  // A conduit's chain runs on the destination partition's thread: the trace
  // track lives in the source partition's hub, and the transit queue is
  // source-side admission state, so both stay untouched here (transit drains
  // lazily at the next offer).
  sim::Simulator& dsim = deliver_sim_;
  auto* hub = is_conduit() ? nullptr : sim_.telemetry();
  const Time fired_at = dsim.now();
  Time last_delivered = fired_at;
  std::int64_t delivered_here = 0;
  for (;;) {
    // A delivery below may have re-entered offer() and armed a fresh chain
    // event; this loop is still in charge, so retire it.
    chain_timer_.cancel();
    if (calendar_head_ == calendar_.size()) {
      calendar_.clear();
      calendar_head_ = 0;
      break;
    }
    const Time arrival = calendar_[calendar_head_].arrival;
    if (arrival > dsim.now()) {
      // Run ahead only while no other simulator event intervenes (strict <:
      // at a tie the heap's FIFO order decides) and the run's horizon allows
      // it; otherwise hand control back and resume at the next arrival.
      if (arrival > dsim.run_horizon() || arrival >= dsim.next_event_time()) {
        arm_chain();
        break;
      }
      dsim.advance_now(arrival);
      if (!is_conduit()) drain_transit(arrival);
    }
    Packet pkt = std::move(calendar_[calendar_head_].pkt);
    ++calendar_head_;
    if (calendar_head_ > calendar_.size() / 2) {
      calendar_.erase(
          calendar_.begin(),
          calendar_.begin() + static_cast<std::ptrdiff_t>(calendar_head_));
      calendar_head_ = 0;
    }
    const std::size_t size = pkt.wire_size();
    ++stats_.delivered;
    stats_.bytes_delivered += static_cast<std::int64_t>(size);
    last_delivered = dsim.now();
    ++delivered_here;
    deliver_(std::move(pkt));
  }
  if (hub != nullptr && delivered_here > 0) {
    // Passive per-train span: one slice on the link track covering this
    // chain firing's deliveries (value-free; length = run-ahead window).
    auto& tr = hub->tracer();
    tr.begin(trace_track_, n_train_, fired_at);
    tr.end(trace_track_, last_delivered);
  }
}

void Link::transmit_unbatched(Packet&& pkt) {
  ++stats_.offered;
  const std::size_t size = pkt.wire_size();

  if (queued_bytes_ + size > params_.queue_capacity_bytes) {
    ++stats_.dropped_queue;
    LOG_TRACE << "link " << name_ << " queue drop pkt " << pkt.id;
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().instant(trace_track_, n_drop_queue_, sim_.now());
    }
    if (pool_ != nullptr) pool_->release(std::move(pkt.payload));
    return;
  }
  if (params_.loss && params_.loss->drop(rng_)) {
    ++stats_.dropped_loss;
    LOG_TRACE << "link " << name_ << " random loss pkt " << pkt.id;
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().instant(trace_track_, n_drop_loss_, sim_.now());
    }
    if (pool_ != nullptr) pool_->release(std::move(pkt.payload));
    return;
  }

  const Time now = sim_.now();
  const Time start = std::max(now, busy_until_);
  stats_.queueing_delay_ms.add((start - now).to_ms());
  const Time finish = start + serialization_time(size);
  busy_until_ = finish;
  queued_bytes_ += size;

  if (params_.corruption_prob > 0 && !pkt.payload.empty() &&
      rng_.bernoulli(params_.corruption_prob)) {
    // Flip one bit of a random payload byte (classic line-noise model).
    const auto at = static_cast<std::size_t>(rng_.below(pkt.payload.size()));
    pkt.payload[at] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
    ++stats_.corrupted;
  }

  Time extra = Time::zero();
  if (params_.jitter_stddev > Time::zero() || params_.jitter_mean > Time::zero()) {
    const double j = rng_.normal(params_.jitter_mean.to_seconds(),
                                 params_.jitter_stddev.to_seconds());
    extra = Time::seconds(std::max(0.0, j));
  }
  const Time arrival = finish + params_.propagation + extra;

  if (auto* hub = sim_.telemetry()) {
    hub->tracer().counter(trace_track_, n_queue_bytes_, now,
                          static_cast<double>(queued_bytes_));
  }

  // Telemetry stays passive: the queue-depth sample at `finish` rides the
  // dequeue event that exists regardless, so traced and untraced runs
  // execute the identical event sequence.
  sim_.schedule_at(finish, [this, size] {
    queued_bytes_ -= size;
    if (auto* hub = sim_.telemetry()) {
      hub->tracer().counter(trace_track_, n_queue_bytes_, sim_.now(),
                            static_cast<double>(queued_bytes_));
    }
  });
  sim_.schedule_at(arrival,
                   [this, p = std::move(pkt), size]() mutable {
                     ++stats_.delivered;
                     stats_.bytes_delivered += static_cast<std::int64_t>(size);
                     deliver_(std::move(p));
                   });
}

void Link::flush_telemetry() {
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  drain_transit(sim_.now());
  auto& m = hub->metrics();
  const std::string prefix = "link/" + name_ + "/";
  m.set(prefix + "offered", static_cast<double>(stats_.offered));
  m.set(prefix + "delivered", static_cast<double>(stats_.delivered));
  m.set(prefix + "dropped_queue", static_cast<double>(stats_.dropped_queue));
  m.set(prefix + "dropped_loss", static_cast<double>(stats_.dropped_loss));
  m.set(prefix + "dropped_down", static_cast<double>(stats_.dropped_down));
  m.set(prefix + "bytes_delivered",
        static_cast<double>(stats_.bytes_delivered));
  const double elapsed_s = sim_.now().to_seconds();
  const double utilization =
      elapsed_s > 0.0 ? static_cast<double>(stats_.bytes_delivered) * 8.0 /
                            (params_.bandwidth_bps * elapsed_s)
                      : 0.0;
  m.set(prefix + "utilization", utilization);
  m.set(prefix + "queue_delay_ms_p95", stats_.queueing_delay_ms.percentile(95));
}

}  // namespace hyms::net
