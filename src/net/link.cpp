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
    n_dropped_queue_ = tr.name("drop/queue");
    n_dropped_loss_ = tr.name("drop/loss");
    n_dropped_down_ = tr.name("drop/down");
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

void Link::drop(Packet&& pkt, std::int64_t& counter, const char* what,
                telemetry::NameId instant) {
  ++counter;
  LOG_TRACE << "link " << name_ << what << pkt.id;
  if (auto* hub = sim_.telemetry()) {
    hub->tracer().instant(trace_track_, instant, sim_.now());
  }
  if (pool_ != nullptr) pool_->release(std::move(pkt.payload));
}

void Link::transmit(Packet&& pkt) {
  offer(std::move(pkt));
  flush_mailbox();
}

void Link::send_train(std::vector<Packet>& train) {
  if (is_conduit()) {
    mailbox_.reserve(mailbox_.size() + train.size());
  } else if (params_.batching) {
    calendar_.reserve(calendar_.size() + train.size());
  }
  for (auto& pkt : train) offer(std::move(pkt));
  train.clear();
  flush_mailbox();
}

void Link::drain_transit(Time t) {
  auto* hub = sim_.telemetry();
  while (transit_head_ < transit_.size() &&
         transit_[transit_head_].finish <= t) {
    const TransitEntry& entry = transit_[transit_head_];
    queued_bytes_ -= entry.size;
    if (hub != nullptr) {
      // Historical timestamp: the sample carries the serialization-finish
      // instant the reference path's dequeue event fires at.
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

void Link::offer(Packet&& pkt) {
  const Time now = sim_.now();
  ++stats_.offered;
  if (!up_) {
    drop(std::move(pkt), stats_.dropped_down, " down, dropping pkt ",
         n_dropped_down_);
    return;
  }
  // Retire finished serializations first so the queue-capacity check sees
  // the same occupancy the reference path's dequeue events leave.
  drain_transit(now);
  const std::size_t size = pkt.wire_size();
  if (queued_bytes_ + size > params_.queue_capacity_bytes) {
    drop(std::move(pkt), stats_.dropped_queue, " queue drop pkt ",
         n_dropped_queue_);
    return;
  }
  if (params_.loss && params_.loss->drop(rng_)) {
    drop(std::move(pkt), stats_.dropped_loss, " random loss pkt ",
         n_dropped_loss_);
    return;
  }

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

  if (!is_conduit() && !params_.batching) {
    // The per-packet reference: a dequeue event at `finish` and an arrival
    // event, the two events the calendar saves. Telemetry stays passive: the
    // queue-depth sample rides the dequeue event that exists regardless.
    sim_.schedule_at(finish, [this, size] {
      queued_bytes_ -= size;
      if (auto* hub = sim_.telemetry()) {
        hub->tracer().counter(trace_track_, n_queue_bytes_, sim_.now(),
                              static_cast<double>(queued_bytes_));
      }
    });
    sim_.schedule_at(arrival, [this, p = std::move(pkt), size]() mutable {
      ++stats_.delivered;
      stats_.bytes_delivered += static_cast<std::int64_t>(size);
      deliver_(std::move(p));
    });
    return;
  }
  transit_.push_back(TransitEntry{finish, size});
  PendingArrival item{std::move(pkt), arrival, stats_.offered};
  if (is_conduit()) {
    // The packet waits in the mailbox until the enclosing
    // transmit()/send_train() posts the batch to the executor.
    mailbox_.push_back(std::move(item));
    return;
  }
  insert_calendar(std::move(item));
}

void Link::insert_calendar(PendingArrival&& item) {
  // (arrival, offer index) is a total order, so the calendar does not depend
  // on insertion order: a conduit's batches, which the executor injects by
  // their earliest arrival, land where the sequential kernel's offers put
  // them, and equal arrivals deliver in offer order, as the reference path's
  // arrival events fire. Offers mostly come in that order, so the common
  // case is a push_back.
  const auto before = [](const PendingArrival& a, const PendingArrival& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival
                                  : a.offer_index < b.offer_index;
  };
  if (calendar_.size() == calendar_head_ || before(calendar_.back(), item)) {
    calendar_.push_back(std::move(item));
    if (calendar_.size() - calendar_head_ == 1) arm_chain();
    return;
  }
  const auto head =
      calendar_.begin() + static_cast<std::ptrdiff_t>(calendar_head_);
  const auto pos = std::upper_bound(head, calendar_.end(), item, before);
  const bool new_head = pos == head;
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
  // executor's post contract. The thunk runs on the destination partition's
  // thread before its next window and touches only the calendar and the
  // chain timer, which no source-side code touches, so it is race-free
  // while other partitions run; every item it parks arrives at or after
  // `earliest`, so the chain it arms does too.
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
