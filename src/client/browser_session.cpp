#include "client/browser_session.hpp"

#include <algorithm>

#include "markup/parser.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace hyms::client {

namespace {

/// Backoff jitter: +-fraction of the capped exponential delay.
constexpr double kBackoffJitter = 0.3;
/// How many quality-floor notches admission retries may concede.
constexpr int kMaxFloorDegradations = 3;
/// Rejections tolerated before the session gives up (typed kAborted fate).
constexpr int kMaxAdmissionRetries = 6;
/// Concede one quality-floor notch every N rejections (bounded by
/// kMaxFloorDegradations).
constexpr int kConcedeEvery = 2;

}  // namespace

std::string to_string(ClientState state) {
  switch (state) {
    case ClientState::kDisconnected: return "disconnected";
    case ClientState::kConnecting: return "connecting";
    case ClientState::kSubscribing: return "subscribing";
    case ClientState::kBrowsing: return "browsing";
    case ClientState::kRequestingDocument: return "requesting-document";
    case ClientState::kQueuedForAdmission: return "queued-for-admission";
    case ClientState::kSettingUp: return "setting-up";
    case ClientState::kViewing: return "viewing";
    case ClientState::kPaused: return "paused";
    case ClientState::kSuspended: return "suspended";
    case ClientState::kRecovering: return "recovering";
    case ClientState::kClosed: return "closed";
  }
  return "?";
}

BrowserSession::BrowserSession(net::Network& net, net::NodeId node,
                               net::Endpoint server, Config config)
    : net_(net), sim_(net.sim_at(node)), node_(node), server_(server),
      config_(std::move(config)),
      // Fork from the pristine seed, not the live root RNG: the root's state
      // depends on how many TCP/RTP objects this kernel built before us,
      // which varies with the partition count — backoff jitter must not.
      jitter_rng_(util::Rng(net.sim_at(node).seed()).fork(0xBAC0FFull ^ node)),
      trace_id_(config_.trace_id) {}

void BrowserSession::log_event(const std::string& what) {
  events_.push_back(sim_.now().str() + " " + what);
  if (trace_id_ != 0) {
    if (auto* hub = sim_.telemetry(); hub != nullptr) {
      hub->qoe().note_event(trace_id_, sim_.now(), what);
    }
  }
}

void BrowserSession::transition(ClientState next) {
  log_event(to_string(state_) + " -> " + to_string(next));
  state_ = next;
}

void BrowserSession::enter_browsing() {
  transition(ClientState::kBrowsing);
  if (recovering_) {
    // If the outage hit before the first DocumentReply, current_document_ is
    // still empty but pending_document_ carries the interrupted request.
    const std::string doc =
        !current_document_.empty() ? current_document_ : pending_document_;
    if (!doc.empty()) {
      // Re-run admission for the interrupted document and resume playout.
      log_event("recovery: re-requesting " + doc + " at " +
                resume_position_.str());
      request_document(doc);
      return;
    }
    // Nothing was playing; the re-established session IS the recovery.
    recovering_ = false;
    recovery_attempts_ = 0;
    ++recoveries_;
    log_event("recovery: session re-established");
  }
  if (!queued_document_.empty() && state_ == ClientState::kBrowsing) {
    const std::string doc = std::move(queued_document_);
    queued_document_.clear();
    request_document(doc);
  }
}

void BrowserSession::fail(util::Error error) {
  last_error_ = error.message;
  log_event("error: " + error.message);
  last_status_ = util::Status(std::move(error));
  if (on_error_) on_error_(last_error_);
}

void BrowserSession::send(const proto::Message& msg) {
  // Span ids advance unconditionally (they are part of the wire envelope),
  // so traced and bare runs put byte-identical frames on the network.
  send(msg, telemetry::TraceContext{trace_id_, ++span_seq_});
}

void BrowserSession::send(const proto::Message& msg,
                          const telemetry::TraceContext& ctx) {
  if (!channel_) {
    fail(util::Error{util::Error::Code::kNetwork, "send with no connection"});
    return;
  }
  if (ctx.valid() && trace_track_ != telemetry::kInvalidTraceId) {
    if (auto* hub = sim_.telemetry(); hub != nullptr && hub->tracing()) {
      // One Perfetto flow per request: it starts here and is stepped/ended
      // by the server handler and (for StreamSetup) the first playout slot.
      auto& tr = hub->tracer();
      tr.flow_start(trace_track_, tr.name(proto::message_name(msg)), sim_.now(),
                    ctx.flow_id());
    }
  }
  channel_->send_message(proto::encode(msg, ctx));
}

void BrowserSession::connect(const std::string& user,
                             const std::string& credential) {
  if (state_ != ClientState::kDisconnected && state_ != ClientState::kClosed) {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "connect in state " + to_string(state_)});
    return;
  }
  user_ = user;
  credential_ = credential;
  user_closing_ = false;
  // The session trace id survives reconnects: every recovery attempt of one
  // user session stitches into the same causal tree and QoE record.
  if (trace_id_ == 0) trace_id_ = sim_.next_trace_id();
  if (auto* hub = sim_.telemetry(); hub != nullptr) {
    hub->qoe().session(trace_id_, "client/" + user_);
    if (hub->tracing() && trace_track_ == telemetry::kInvalidTraceId) {
      trace_track_ = hub->tracer().track("client/" + user_ + "/session");
    }
  }
  open_connection();
}

void BrowserSession::open_connection() {
  conn_ = net::StreamConnection::connect(net_, node_, server_, config_.tcp);
  channel_ = std::make_unique<net::MessageChannel>(*conn_);
  channel_->set_on_message(
      [this](std::vector<std::uint8_t> frame) { on_frame(std::move(frame)); });
  conn_->set_on_close([this] {
    if (state_ == ClientState::kClosed) return;
    if (recovering_) return;  // we tore it down ourselves
    if (config_.recovery.enabled && !user_closing_ &&
        outcome_ == telemetry::QoeOutcome::kPending &&
        state_ != ClientState::kSuspended) {
      settle_queue_wait();  // a crash may have hit us parked in the queue
      // An unsolicited transport death (server crash, outage longer than the
      // retransmit budget) is an outage, not the end of the session.
      begin_recovery(std::string("transport closed: ") +
                     net::to_string(conn_->close_reason()));
      return;
    }
    if (state_ == ClientState::kQueuedForAdmission &&
        outcome_ == telemetry::QoeOutcome::kPending && !user_closing_) {
      // Without recovery a transport death while parked in the server's
      // wait queue (server crash) is a terminal, typed admission loss.
      settle_queue_wait();
      outcome_ = telemetry::QoeOutcome::kAborted;
      fail(util::Error{util::Error::Code::kAdmissionRejected,
                       "connection lost while queued for admission"});
    }
    transition(ClientState::kClosed);
    accumulate_playout_qoe();
    presentation_.reset();
    seal_qoe(outcome_);
  });
  transition(ClientState::kConnecting);
  send(proto::ConnectRequest{user_, credential_});
  arm_request_timer();
}

// --- outage tolerance ----------------------------------------------------------

void BrowserSession::arm_request_timer() {
  if (!config_.recovery.enabled) return;
  request_timer_.arm_after(config_.recovery.request_timeout, [this] {
    begin_recovery("control request timed out after " +
                   config_.recovery.request_timeout.str());
  });
}

void BrowserSession::cancel_recovery_timers() {
  request_timer_.cancel();
  liveness_timer_.cancel();
  reconnect_timer_.cancel();
}

void BrowserSession::arm_liveness_monitor() {
  if (!config_.recovery.enabled) return;
  liveness_timer_.arm_after(config_.recovery.liveness_poll,
                            [this] { check_liveness(); });
}

void BrowserSession::check_liveness() {
  if (!presentation_ ||
      (state_ != ClientState::kViewing && state_ != ClientState::kPaused)) {
    return;  // the monitor ends with the presentation
  }
  if (presentation_->scheduler().finished()) return;
  const auto& st = presentation_->stats();
  const std::int64_t marker = st.frames_received + st.objects_fetched;
  // A paused presentation legitimately receives nothing.
  if (marker != progress_marker_ || state_ == ClientState::kPaused) {
    progress_marker_ = marker;
    progress_stamp_ = sim_.now();
  }
  if (presentation_->objects_stalled()) {
    begin_recovery("object fetch transport died mid-payload");
    return;
  }
  if (sim_.now() - progress_stamp_ >= config_.recovery.liveness_timeout) {
    begin_recovery("media starvation: no data for " +
                   (sim_.now() - progress_stamp_).str());
    return;
  }
  arm_liveness_monitor();
}

Time BrowserSession::backoff_for(const RecoveryConfig& rc, int attempt,
                                 util::Rng& rng) {
  const int exponent = std::min(attempt, 16);
  double us = static_cast<double>(rc.backoff_initial.us());
  for (int i = 0; i < exponent; ++i) us *= 2.0;
  us = std::min(us, static_cast<double>(rc.backoff_cap.us()));
  // Jitter decorrelates reconnect storms across clients hit by one outage.
  us *= 1.0 + kBackoffJitter * (2.0 * rng.uniform() - 1.0);
  return std::max(Time::msec(1), Time::usec(static_cast<std::int64_t>(us)));
}

void BrowserSession::begin_recovery(const std::string& why) {
  if (!config_.recovery.enabled || state_ == ClientState::kClosed) return;
  if (recovering_ && reconnect_timer_.armed()) return;  // backing off
  cancel_recovery_timers();
  log_event("recovery: " + why);
  recovering_ = true;
  settle_queue_wait();  // an outage while queued ends that queue stay
  if (presentation_ != nullptr &&
      (state_ == ClientState::kViewing || state_ == ClientState::kPaused)) {
    // Resume no earlier than where playout stopped; across repeated outages
    // the position only moves forward.
    const Time position = presentation_->playout_position();
    if (position > resume_position_) resume_position_ = position;
  }
  accumulate_playout_qoe();
  presentation_.reset();
  if (conn_) conn_->abort();  // re-entry into on_close is guarded by recovering_
  channel_.reset();
  conn_.reset();
  schedule_reconnect(why);
}

void BrowserSession::schedule_reconnect(const std::string& why) {
  if (recovery_attempts_ >= config_.recovery.max_attempts) {
    abort_recovery(why);
    return;
  }
  ++recovery_attempts_;
  const Time delay =
      backoff_for(config_.recovery, recovery_attempts_, jitter_rng_);
  if (state_ != ClientState::kRecovering) transition(ClientState::kRecovering);
  log_event("recovery: attempt " + std::to_string(recovery_attempts_) + "/" +
            std::to_string(config_.recovery.max_attempts) + " in " +
            delay.str());
  reconnect_timer_.arm_after(delay, [this] { reconnect(); });
}

void BrowserSession::reconnect() {
  if (state_ == ClientState::kClosed) return;
  open_connection();
}

void BrowserSession::abort_recovery(const std::string& why) {
  recovering_ = false;
  cancel_recovery_timers();
  outcome_ = telemetry::QoeOutcome::kAborted;
  accumulate_playout_qoe();
  presentation_.reset();
  seal_qoe(outcome_);
  transition(ClientState::kClosed);  // before abort(): on_close sees kClosed
  if (conn_) conn_->abort();
  channel_.reset();
  conn_.reset();
  fail(util::Error{util::Error::Code::kNetwork,
                   "session aborted: recovery budget exhausted (" + why + ")"});
}

void BrowserSession::finish_presentation() {
  log_event("presentation finished");
  outcome_ = floor_degradations_ > 0 ? telemetry::QoeOutcome::kDegraded
                                     : telemetry::QoeOutcome::kCompleted;
  accumulate_playout_qoe();
  seal_qoe(outcome_);
  if (on_presentation_finished_) on_presentation_finished_();
}

// --- overload retry -------------------------------------------------------------

void BrowserSession::settle_queue_wait() {
  if (queue_entered_at_ == Time::max()) return;
  queue_wait_ms_ += (sim_.now() - queue_entered_at_).to_ms();
  queue_entered_at_ = Time::max();
}

void BrowserSession::handle_admission_rejection(const proto::DocumentReply& m) {
  const auto& rc = config_.recovery;
  if (admission_wait_began_ == Time::max()) admission_wait_began_ = sim_.now();
  if (admission_retries_ >= kMaxAdmissionRetries) {
    give_up_admission("retry budget exhausted: " + m.reason);
    return;
  }
  if (sim_.now() - admission_wait_began_ >= rc.admission_patience) {
    give_up_admission("patience exhausted: " + m.reason);
    return;
  }
  ++admission_retries_;
  if (admission_retries_ % kConcedeEvery == 0 &&
      floor_degradations_ < kMaxFloorDegradations) {
    ++floor_degradations_;
    log_event("overload: conceding quality floor notch " +
              std::to_string(floor_degradations_));
  }
  // Backoff: our own capped exponential with deterministically forked
  // jitter, never earlier than the server's retry-after hint.
  Time delay = backoff_for(rc, admission_retries_ - 1, jitter_rng_);
  if (m.retry_after_us > 0) delay = std::max(delay, Time::usec(m.retry_after_us));
  log_event("overload: admission rejected, retry " +
            std::to_string(admission_retries_) + "/" +
            std::to_string(kMaxAdmissionRetries) + " in " + delay.str());
  if (on_admission_retry_) on_admission_retry_(admission_retries_);
  reconnect_timer_.arm_after(delay, [this, doc = pending_document_] {
    if (state_ == ClientState::kBrowsing && !doc.empty()) {
      request_document(doc);
    }
  });
}

void BrowserSession::give_up_admission(const std::string& why) {
  log_event("overload: giving up on admission: " + why);
  outcome_ = telemetry::QoeOutcome::kAborted;
  seal_qoe(outcome_);
  fail(util::Error{util::Error::Code::kAdmissionRejected,
                   "admission abandoned: " + why});
}

// --- observability --------------------------------------------------------------

void BrowserSession::finalize_qoe() {
  accumulate_playout_qoe();
  seal_qoe(outcome_);
}

void BrowserSession::accumulate_playout_qoe() {
  if (qoe_accumulated_ || !presentation_ || trace_id_ == 0) return;
  qoe_accumulated_ = true;
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  const auto& trace = presentation_->trace();
  const auto totals = trace.totals();
  auto& rec = hub->qoe().session(trace_id_, "client/" + user_);
  rec.rebuffer_count += static_cast<int>(totals.rebuffers);
  rec.rebuffer_ms += presentation_->scheduler().rebuffer_wait_total().to_ms();
  rec.max_skew_ms = std::max(rec.max_skew_ms, trace.max_abs_skew_ms());
  rec.fresh_slots += totals.fresh;
  rec.total_slots += totals.total_slots();
  if (totals.last_play > totals.first_play) {
    rec.play_ms += (totals.last_play - totals.first_play).to_ms();
  }
}

void BrowserSession::seal_qoe(telemetry::QoeOutcome outcome) {
  if (trace_id_ == 0) return;
  auto* hub = sim_.telemetry();
  if (hub == nullptr) return;
  auto& rec = hub->qoe().session(trace_id_, "client/" + user_);
  rec.recoveries = recoveries_;
  rec.admission_retries = admission_retries_;
  double queue_wait = queue_wait_ms_;
  if (queue_entered_at_ != Time::max()) {
    queue_wait += (sim_.now() - queue_entered_at_).to_ms();  // still parked
  }
  rec.queue_wait_ms = queue_wait;
  hub->qoe().seal(trace_id_, outcome);
}

void BrowserSession::request_topics() { send(proto::TopicListRequest{}); }

void BrowserSession::queue_document(const std::string& name) {
  if (state_ == ClientState::kBrowsing || state_ == ClientState::kViewing ||
      state_ == ClientState::kPaused) {
    request_document(name);
  } else {
    queued_document_ = name;
  }
}

void BrowserSession::request_document(const std::string& name) {
  if (state_ != ClientState::kBrowsing && state_ != ClientState::kViewing &&
      state_ != ClientState::kPaused) {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "request_document in state " + to_string(state_)});
    return;
  }
  accumulate_playout_qoe();
  presentation_.reset();  // navigating away tears the old playout down
  pending_document_ = name;
  // A fresh fate, unless this request resumes a recovering session.
  if (!recovering_) outcome_ = telemetry::QoeOutcome::kPending;
  if (first_request_at_ == Time::max()) first_request_at_ = sim_.now();
  transition(ClientState::kRequestingDocument);
  proto::DocumentRequest request{name};
  if (floor_degradations_ > 0) {
    // Admission already refused us at the granted floors (overload retries,
    // in or out of recovery): concede quality notches (the server only ever
    // degrades — max(subscribed, override)).
    request.video_floor_override = static_cast<std::int8_t>(floor_degradations_);
    request.audio_floor_override = static_cast<std::int8_t>(floor_degradations_);
  }
  send(request);
  arm_request_timer();
}

void BrowserSession::pause() {
  if (state_ != ClientState::kViewing) {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "pause while not viewing"});
    return;
  }
  send(proto::Pause{});
  if (presentation_) presentation_->pause();
  transition(ClientState::kPaused);
}

void BrowserSession::resume_presentation() {
  if (state_ != ClientState::kPaused) {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "resume while not paused"});
    return;
  }
  send(proto::Resume{});
  if (presentation_) presentation_->resume();
  transition(ClientState::kViewing);
}

void BrowserSession::stop_stream(const std::string& stream_id) {
  send(proto::StopStream{stream_id});
  if (presentation_) presentation_->disable_stream(stream_id);
}

void BrowserSession::search(const std::string& token) {
  search_results_.clear();
  search_completed_ = false;
  send(proto::SearchRequest{token});
}

void BrowserSession::suspend() {
  if (state_ == ClientState::kViewing || state_ == ClientState::kPaused ||
      state_ == ClientState::kBrowsing) {
    accumulate_playout_qoe();
    presentation_.reset();
    send(proto::Suspend{});
  } else {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "suspend in state " + to_string(state_)});
  }
}

void BrowserSession::resume_session() {
  if (state_ != ClientState::kSuspended) {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "resume_session while not suspended"});
    return;
  }
  send(proto::ResumeSession{user_});
  arm_request_timer();
}

void BrowserSession::disconnect() {
  user_closing_ = true;
  cancel_recovery_timers();
  if (!channel_) return;
  send(proto::Disconnect{});
  accumulate_playout_qoe();
  presentation_.reset();
  if (conn_) conn_->close();
}

void BrowserSession::send_mail(const std::string& to,
                               const std::string& subject,
                               const std::string& body,
                               const std::string& mime) {
  send(proto::MailSend{to, subject, body, mime});
}

void BrowserSession::list_mail() { send(proto::MailList{}); }

void BrowserSession::fetch_mail(std::int64_t index) {
  send(proto::MailFetch{index});
}

void BrowserSession::annotate(const std::string& remark) {
  if (current_document_.empty()) {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "annotate with no document viewed"});
    return;
  }
  send(proto::Annotate{current_document_, remark});
}

void BrowserSession::request_annotations(const std::string& document) {
  send(proto::AnnotationListRequest{document});
}

void BrowserSession::reload_document() {
  if (current_document_.empty()) {
    fail(util::Error{util::Error::Code::kInvalidArgument,
                     "reload with no document viewed"});
    return;
  }
  request_document(current_document_);
}

void BrowserSession::on_frame(std::vector<std::uint8_t> frame) {
  request_timer_.cancel();  // any inbound frame proves the server alive
  telemetry::TraceContext ctx;
  auto decoded = proto::decode(frame, &ctx);
  if (!decoded.ok()) {
    fail(util::Error{util::Error::Code::kParse, "undecodable server message"});
    return;
  }
  if (ctx.valid() && trace_track_ != telemetry::kInvalidTraceId) {
    if (auto* hub = sim_.telemetry(); hub != nullptr && hub->tracing()) {
      // Replies close the request's flow on the client track — except the
      // StreamSetupReply, whose flow is only stepped here and terminates at
      // the presentation's first playout slot.
      auto& tr = hub->tracer();
      const auto name =
          tr.name(proto::message_name(decoded.value()));
      if (std::holds_alternative<proto::StreamSetupReply>(decoded.value())) {
        tr.flow_step(trace_track_, name, sim_.now(), ctx.flow_id());
      } else {
        tr.flow_end(trace_track_, name, sim_.now(), ctx.flow_id());
      }
      tr.instant(trace_track_, name, sim_.now());
    }
  }
  std::visit([this](const auto& m) { handle(m); }, decoded.value());
}

// --- reply handlers ------------------------------------------------------------

void BrowserSession::handle(const proto::ConnectReply& m) {
  if (m.ok) {
    enter_browsing();
    return;
  }
  if (m.needs_subscription) {
    transition(ClientState::kSubscribing);
    if (subscription_form_) {
      log_event("submitting subscription form");
      send(*subscription_form_);
      arm_request_timer();
    }
    return;
  }
  fail(util::Error{util::Error::Code::kAuthentication,
                   "connect refused: " + m.reason});
}

void BrowserSession::handle(const proto::SubscribeReply& m) {
  if (!m.ok) {
    fail(util::Error{util::Error::Code::kValidation,
                     "subscription refused: " + m.reason});
    return;
  }
  enter_browsing();
}

void BrowserSession::handle(const proto::TopicListReply& m) {
  topics_ = m.documents;
  log_event("topics: " + std::to_string(topics_.size()));
}

void BrowserSession::handle(const proto::DocumentReply& m) {
  if (state_ != ClientState::kRequestingDocument &&
      state_ != ClientState::kQueuedForAdmission) {
    fail("unexpected DocumentReply");
    return;
  }
  if (!m.ok && m.admission == 2) {
    // Parked in the server's wait queue; a second DocumentReply (grant or
    // deadline rejection) will follow. The request timer stays armed when
    // recovery is on, so a server crash in the queue is still an outage.
    transition(ClientState::kQueuedForAdmission);
    queue_entered_at_ = sim_.now();
    log_event("admission queued at position " +
              std::to_string(m.queue_position));
    if (on_admission_queued_) on_admission_queued_(m.queue_position);
    arm_request_timer();
    return;
  }
  const bool was_queued = state_ == ClientState::kQueuedForAdmission;
  settle_queue_wait();  // a grant or rejection ends any queue stay
  if (m.ok && was_queued) {
    log_event("admission granted out of wait queue");
  }
  if (!m.ok) {
    transition(ClientState::kBrowsing);
    if (m.retryable_admission &&
        config_.recovery.admission_patience > Time::zero()) {
      handle_admission_rejection(m);
      return;
    }
    if (m.retryable_admission) {
      // Terminal admission rejection with no retry policy: a typed fate, so
      // the QoE/SLO plane accounts for the session instead of dropping it.
      outcome_ = telemetry::QoeOutcome::kAborted;
      seal_qoe(outcome_);
      fail(util::Error{util::Error::Code::kAdmissionRejected,
                       "document refused: " + m.reason});
      return;
    }
    fail(util::Error{util::Error::Code::kNotFound,
                     "document refused: " + m.reason});
    return;
  }
  if (m.admission == 1 && m.degraded_notches > 0) {
    // The server's degradation ladder admitted us below the requested
    // quality; the session finishes kDegraded, not kCompleted.
    floor_degradations_ =
        std::max(floor_degradations_, int{m.degraded_notches});
    log_event("admission degraded by " + std::to_string(m.degraded_notches) +
              " notch(es)");
  }
  admission_wait_began_ = Time::max();  // the overload spell is over
  auto parsed = markup::parse(m.markup);
  if (!parsed.ok()) {
    transition(ClientState::kBrowsing);
    fail(util::Error{util::Error::Code::kParse,
                     "scenario parse failed: " + parsed.error().message});
    return;
  }
  auto scenario = core::extract_scenario(parsed.value());
  if (!scenario.ok()) {
    transition(ClientState::kBrowsing);
    fail(util::Error{util::Error::Code::kValidation,
                     "scenario invalid: " + scenario.error().message});
    return;
  }
  current_document_ = pending_document_;
  auto presentation_config = config_.presentation;
  if (recovering_) presentation_config.start_offset = resume_position_;
  presentation_ = std::make_unique<PresentationRuntime>(
      net_, node_, std::move(scenario.value()), presentation_config);
  presentation_->scheduler().set_on_finished([this] { finish_presentation(); });
  presentation_->scheduler().set_on_timed_link(
      [this](const core::LinkSpec& link) {
        log_event("timed link fired -> " + link.target_document);
        // Navigation may tear this presentation down; leave the scheduler's
        // stack first. The user hook is checked at delivery time so it may
        // be installed after the document started playing.
        fired_links_.push_back(link);
        if (!timed_link_timer_.armed()) {
          timed_link_timer_.arm_after(Time::zero(),
                                      [this] { follow_fired_links(); });
        }
      });
  qoe_accumulated_ = false;  // a fresh presentation's playout to account
  if (config_.auto_setup) {
    transition(ClientState::kSettingUp);
    // The StreamSetup's flow does not end at its reply: it is stepped through
    // the server and terminates at the presentation's first playout slot.
    const telemetry::TraceContext setup_ctx{trace_id_, ++span_seq_};
    presentation_->set_trace_context(setup_ctx);
    send(presentation_->prepare_setup(current_document_), setup_ctx);
    arm_request_timer();
  }
}

void BrowserSession::follow_fired_links() {
  // Runs from locals: the hook may navigate, or even destroy this session.
  const std::vector<core::LinkSpec> links = std::move(fired_links_);
  fired_links_.clear();
  const auto hook = on_timed_link_;
  if (!hook) return;
  for (const core::LinkSpec& link : links) hook(link);
}

void BrowserSession::handle(const proto::StreamSetupReply& m) {
  if (state_ != ClientState::kSettingUp || !presentation_) {
    fail("unexpected StreamSetupReply");
    return;
  }
  if (!m.ok) {
    accumulate_playout_qoe();
    presentation_.reset();
    transition(ClientState::kBrowsing);
    fail(util::Error{util::Error::Code::kProtocol,
                     "stream setup refused: " + m.reason});
    return;
  }
  presentation_->activate(m, config_.tcp);
  transition(ClientState::kViewing);
  if (!startup_recorded_ && first_request_at_ != Time::max()) {
    startup_recorded_ = true;
    if (auto* hub = sim_.telemetry(); hub != nullptr && trace_id_ != 0) {
      auto& rec = hub->qoe().session(trace_id_, "client/" + user_);
      rec.startup_ms =
          std::max(rec.startup_ms, (sim_.now() - first_request_at_).to_ms());
    }
  }
  if (recovering_) {
    recovering_ = false;
    recovery_attempts_ = 0;  // a successful recovery refills the budget
    ++recoveries_;
    log_event("recovery: resumed " + current_document_ + " at " +
              resume_position_.str());
  }
  progress_marker_ = -1;
  progress_stamp_ = sim_.now();
  arm_liveness_monitor();
  if (on_viewing_) on_viewing_();
}

void BrowserSession::handle(const proto::SearchReply& m) {
  search_results_ = m.hits;
  search_completed_ = true;
  log_event("search hits: " + std::to_string(m.hits.size()));
}

void BrowserSession::handle(const proto::SuspendAck& m) {
  transition(ClientState::kSuspended);
  log_event("suspend keepalive " + Time::usec(m.keepalive_us).str());
}

void BrowserSession::handle(const proto::SuspendExpired&) {
  log_event("server expired the suspended session");
}

void BrowserSession::handle(const proto::ResumeSessionReply& m) {
  if (m.ok) {
    enter_browsing();
  } else {
    fail(util::Error{util::Error::Code::kAuthentication,
                     "session resume refused: " + m.reason});
  }
}

void BrowserSession::handle(const proto::MailList& m) {
  mail_subjects_ = m.subjects;
  log_event("mailbox: " + std::to_string(m.subjects.size()) + " message(s)");
}

void BrowserSession::handle(const proto::AnnotationListReply& m) {
  annotations_ = m.remarks;
  log_event("annotations for " + m.document + ": " +
            std::to_string(m.remarks.size()));
}

void BrowserSession::handle(const proto::MailSend& m) {
  fetched_mail_ = m;
  log_event("fetched mail: " + m.subject);
}

void BrowserSession::handle(const proto::ErrorReply& m) {
  fail("server error: " + m.what);
}

}  // namespace hyms::client
