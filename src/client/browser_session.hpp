#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/presentation.hpp"
#include "net/tcp.hpp"
#include "proto/messages.hpp"
#include "telemetry/qoe.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace hyms::client {

/// Client-side protocol state (the browser's view of Fig. 4).
enum class ClientState : std::uint8_t {
  kDisconnected = 0,
  kConnecting,      // TCP handshake + ConnectRequest in flight
  kSubscribing,     // server asked for the subscription form
  kBrowsing,        // authenticated; may list/search/request
  kRequestingDocument,
  kQueuedForAdmission,  // server parked the request in its wait queue
  kSettingUp,       // StreamSetup sent, waiting for stream facts
  kViewing,
  kPaused,
  kSuspended,       // this server is parked while we visit another
  kRecovering,      // outage detected; backing off before reconnecting
  kClosed,
};

[[nodiscard]] std::string to_string(ClientState state);

/// Outage tolerance knobs (off by default: a session without recovery
/// behaves exactly as before — no timers, no reconnects).
struct RecoveryConfig {
  bool enabled = false;
  /// Control-channel request timeout: a request expecting a reply that sees
  /// no inbound frame for this long presumes the server gone.
  Time request_timeout = Time::sec(5);
  /// Data-starvation bound while viewing: no frame/object progress for this
  /// long (with the presentation unfinished) presumes the flows dead.
  Time liveness_timeout = Time::sec(4);
  Time liveness_poll = Time::sec(1);
  /// Backoff: reconnect attempt k (1-based) waits initial * 2^k and
  /// admission retry k waits initial * 2^(k-1); both are capped at
  /// backoff_cap, then jittered by +-30%.
  Time backoff_initial = Time::msec(400);
  Time backoff_cap = Time::sec(5);
  /// Consecutive failed recoveries before the session aborts. A successful
  /// re-establishment refills the budget.
  int max_attempts = 8;

  // --- overload retry (admission rejection) ---------------------------------
  // Active even when `enabled` is false: retrying a rejected admission needs
  // no outage machinery, only client-local timers, so a population session
  // without crash recovery can still ride out a flash crowd.
  /// Sim-time budget from the first rejection before giving up regardless
  /// of the retry count — the user's patience. Greater than zero retries
  /// retryable rejections with capped exponential backoff (honoring the
  /// server's retry_after hint when it is larger), in or out of outage
  /// recovery; zero ends the session at the first one (typed kAborted).
  Time admission_patience = Time::zero();
};

/// The browser's session with ONE multimedia server: drives the §5
/// application protocol (connect/subscribe/browse/view/suspend/disconnect)
/// and owns the per-document PresentationRuntime. Multi-server navigation is
/// the Browser's job (browser.hpp).
class BrowserSession {
 public:
  struct Config {
    PresentationRuntime::Config presentation;
    /// Transport settings of the control connection and of every object
    /// fetch.
    net::TcpParams tcp;
    /// Auto-send StreamSetup when a DocumentReply arrives.
    bool auto_setup = true;
    RecoveryConfig recovery;
    /// Pre-assigned QoE trace id; 0 allocates one from the session's
    /// simulator on connect. Population drivers pre-assign ids so QoE
    /// records carry the same keys at every partition count (per-partition
    /// allocators would drift).
    std::uint32_t trace_id = 0;
  };

  using Notify = std::function<void()>;
  using FailFn = std::function<void(const std::string&)>;
  using CountFn = std::function<void(int)>;

  BrowserSession(net::Network& net, net::NodeId node, net::Endpoint server,
                 Config config);
  BrowserSession(const BrowserSession&) = delete;
  BrowserSession& operator=(const BrowserSession&) = delete;

  // --- user primitives (§2) --------------------------------------------------
  void connect(const std::string& user, const std::string& credential);
  /// Pre-load the subscription form; sent automatically if the server asks.
  void set_subscription_form(proto::SubscribeRequest form) {
    subscription_form_ = std::move(form);
  }
  void request_topics();
  void request_document(const std::string& name);
  /// Request now if browsing, otherwise remember and request on the next
  /// transition into browsing (used while a connection is still coming up).
  void queue_document(const std::string& name);
  void pause();
  void resume_presentation();
  void stop_stream(const std::string& stream_id);
  void search(const std::string& token);
  void suspend();
  void resume_session();
  void disconnect();
  void send_mail(const std::string& to, const std::string& subject,
                 const std::string& body, const std::string& mime);
  void list_mail();
  void fetch_mail(std::int64_t index);
  /// Annotate the currently viewed document with a remark (§5).
  void annotate(const std::string& remark);
  void request_annotations(const std::string& document);
  /// Re-request the current document from scratch (§5 "reload").
  void reload_document();

  // --- state & results -------------------------------------------------------
  [[nodiscard]] ClientState state() const { return state_; }
  [[nodiscard]] const std::vector<std::string>& topics() const {
    return topics_;
  }
  [[nodiscard]] const std::vector<proto::SearchHit>& search_results() const {
    return search_results_;
  }
  [[nodiscard]] bool search_completed() const { return search_completed_; }
  [[nodiscard]] const std::vector<std::string>& mail_subjects() const {
    return mail_subjects_;
  }
  [[nodiscard]] const std::optional<proto::MailSend>& fetched_mail() const {
    return fetched_mail_;
  }
  [[nodiscard]] const std::vector<std::string>& annotations() const {
    return annotations_;
  }
  [[nodiscard]] PresentationRuntime* presentation() {
    return presentation_.get();
  }
  [[nodiscard]] const std::string& current_document() const {
    return current_document_;
  }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  /// Typed view of the last failure (util::Error with a category code);
  /// ok() when no failure has occurred. The string last_error() remains the
  /// human-readable rendering of the same event.
  [[nodiscard]] const util::Status& last_status() const { return last_status_; }
  /// Terminal fate of this session (meaningful once recovery is enabled or
  /// a presentation has finished).
  [[nodiscard]] telemetry::QoeOutcome outcome() const { return outcome_; }
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] int recovery_count() const { return recoveries_; }
  [[nodiscard]] int floor_degradations() const { return floor_degradations_; }
  /// Admission rejections this session retried past (lifetime).
  [[nodiscard]] int admission_retries() const { return admission_retries_; }
  /// Total sim time spent parked in a server admission wait queue.
  [[nodiscard]] double queue_wait_ms() const { return queue_wait_ms_; }
  /// Scenario position the last recovery resumed playout from.
  [[nodiscard]] Time resume_position() const { return resume_position_; }
  /// Chronological log of state transitions and notable protocol events —
  /// the observable Fig. 4 walk, asserted on by tests and E6.
  [[nodiscard]] const std::vector<std::string>& event_log() const {
    return events_;
  }
  [[nodiscard]] net::Endpoint server() const { return server_; }
  [[nodiscard]] const std::string& user() const { return user_; }
  /// Dense per-run causal trace id (allocated at connect; 0 before that).
  /// Stable across recoveries, so every reconnect of one user session
  /// stitches into the same causal tree and QoE record.
  [[nodiscard]] std::uint32_t trace_id() const { return trace_id_; }
  /// Fold any live playout accounting into the QoE record and seal it with
  /// the session's current outcome. For harnesses that stop the simulation
  /// at a horizon instead of disconnecting; idempotent (later terminal
  /// events can still worsen the outcome but never double-count).
  void finalize_qoe();

  // --- hooks -------------------------------------------------------------------
  void set_on_viewing(Notify fn) { on_viewing_ = std::move(fn); }
  void set_on_presentation_finished(Notify fn) {
    on_presentation_finished_ = std::move(fn);
  }
  /// Runs just after a timed link fires, off the playout scheduler's stack
  /// (the hook may navigate, tearing the presentation down). Every link fired
  /// at one instant reaches it, in firing order.
  void set_on_timed_link(core::PlayoutScheduler::TimedLinkFn fn) {
    on_timed_link_ = std::move(fn);
  }
  void set_on_error(FailFn fn) { on_error_ = std::move(fn); }
  /// The server parked our DocumentRequest in its wait queue (arg: 0-based
  /// queue position).
  void set_on_admission_queued(CountFn fn) {
    on_admission_queued_ = std::move(fn);
  }
  /// An admission rejection was scheduled for retry (arg: retry ordinal).
  void set_on_admission_retry(CountFn fn) {
    on_admission_retry_ = std::move(fn);
  }

  /// Capped exponential backoff with jitter, pure in (config, attempt, rng):
  /// initial * 2^min(attempt,16), capped, +-30% jitter drawn from `rng`.
  /// Exposed for the determinism unit tests.
  [[nodiscard]] static Time backoff_for(const RecoveryConfig& rc, int attempt,
                                        util::Rng& rng);

 private:
  void send(const proto::Message& msg);
  void send(const proto::Message& msg, const telemetry::TraceContext& ctx);
  void transition(ClientState next);
  void enter_browsing();
  void log_event(const std::string& what);
  void fail(util::Error error);
  void fail(const std::string& what) {
    fail(util::Error{util::Error::Code::kProtocol, what});
  }
  void on_frame(std::vector<std::uint8_t> frame);
  /// Hand the links fired at this instant to the timed-link hook.
  void follow_fired_links();

  // --- outage tolerance --------------------------------------------------------
  void open_connection();
  void arm_request_timer();
  void arm_liveness_monitor();
  void check_liveness();
  void begin_recovery(const std::string& why);
  void schedule_reconnect(const std::string& why);
  void reconnect();
  void abort_recovery(const std::string& why);
  void finish_presentation();
  void cancel_recovery_timers();

  // --- overload retry ----------------------------------------------------------
  /// Handle a retryable admission rejection, in or out of outage recovery:
  /// backoff (honoring the server hint), bounded quality concessions, and a
  /// patience budget; gives the session a typed kAborted fate on exhaustion.
  void handle_admission_rejection(const proto::DocumentReply& m);
  /// Terminal admission failure: seal a typed fate so the QoE/SLO plane
  /// accounts for the session instead of silently dropping it.
  void give_up_admission(const std::string& why);
  /// Fold a completed stay in the server's wait queue into queue_wait_ms_.
  void settle_queue_wait();

  // --- observability -----------------------------------------------------------
  /// Fold the live presentation's playout accounting (rebuffers, skew,
  /// fresh ratio, play/rebuffer spans) into this session's QoE record.
  /// Idempotent per presentation; call before presentation_.reset().
  void accumulate_playout_qoe();
  /// Seal the session's QoE record with its terminal outcome: the flight
  /// recorder frees the ring on completed, dumps it on degraded/aborted.
  void seal_qoe(telemetry::QoeOutcome outcome);

  void handle(const proto::ConnectReply& m);
  void handle(const proto::SubscribeReply& m);
  void handle(const proto::TopicListReply& m);
  void handle(const proto::DocumentReply& m);
  void handle(const proto::StreamSetupReply& m);
  void handle(const proto::SearchReply& m);
  void handle(const proto::SuspendAck& m);
  void handle(const proto::SuspendExpired& m);
  void handle(const proto::ResumeSessionReply& m);
  void handle(const proto::MailList& m);
  void handle(const proto::AnnotationListReply& m);
  void handle(const proto::MailSend& m);  // fetched-mail reply
  void handle(const proto::ErrorReply& m);
  template <typename T>
  void handle(const T& m) {
    fail("unexpected " + proto::message_name(proto::Message{m}));
  }

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId node_;
  net::Endpoint server_;
  Config config_;

  std::unique_ptr<net::StreamConnection> conn_;
  std::unique_ptr<net::MessageChannel> channel_;
  ClientState state_ = ClientState::kDisconnected;
  std::string user_;
  std::string credential_;
  std::optional<proto::SubscribeRequest> subscription_form_;

  std::vector<std::string> topics_;
  std::vector<proto::SearchHit> search_results_;
  bool search_completed_ = false;
  std::vector<std::string> mail_subjects_;
  std::optional<proto::MailSend> fetched_mail_;
  std::vector<std::string> annotations_;
  std::string current_document_;
  std::string pending_document_;
  std::string queued_document_;  // deferred until kBrowsing
  std::unique_ptr<PresentationRuntime> presentation_;
  std::string last_error_;
  util::Status last_status_;
  std::vector<std::string> events_;

  // Outage-tolerance state (inert while !config_.recovery.enabled).
  util::Rng jitter_rng_;        // forked from the sim rng: deterministic
  bool recovering_ = false;     // between outage detection and re-viewing
  bool user_closing_ = false;   // disconnect() was asked for; don't recover
  int recovery_attempts_ = 0;   // consecutive failures this outage
  int recoveries_ = 0;          // successful re-establishments, lifetime
  int floor_degradations_ = 0;  // quality notches conceded to re-admission
  int admission_retries_ = 0;   // rejections retried past, lifetime
  Time admission_wait_began_ = Time::max();  // first rejection of this spell
  Time queue_entered_at_ = Time::max();      // parked in the server queue
  double queue_wait_ms_ = 0.0;  // completed queue stays, lifetime
  Time resume_position_;        // scenario position to resume playout from
  telemetry::QoeOutcome outcome_ = telemetry::QoeOutcome::kPending;
  std::int64_t progress_marker_ = -1;  // liveness: last observed progress
  Time progress_stamp_;                // when the marker last advanced
  sim::Timer request_timer_{sim_};
  sim::Timer liveness_timer_{sim_};
  /// Reconnect backoff and admission retries share it: arming one replaces
  /// the other.
  sim::Timer reconnect_timer_{sim_};
  /// Defers follow_fired_links() past the scheduler's stack, once per
  /// instant however many links fire in it.
  sim::Timer timed_link_timer_{sim_};
  std::vector<core::LinkSpec> fired_links_;

  // Causal tracing + QoE (trace id assignment is always on and part of
  // deterministic simulation state; recording is gated on the hub).
  std::uint32_t trace_id_ = 0;
  std::uint32_t span_seq_ = 0;
  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
  Time first_request_at_ = Time::max();
  bool startup_recorded_ = false;
  bool qoe_accumulated_ = false;  // current presentation already folded in

  Notify on_viewing_;
  Notify on_presentation_finished_;
  core::PlayoutScheduler::TimedLinkFn on_timed_link_;
  FailFn on_error_;
  CountFn on_admission_queued_;
  CountFn on_admission_retry_;
};

}  // namespace hyms::client
