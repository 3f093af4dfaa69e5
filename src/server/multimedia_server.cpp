#include "server/multimedia_server.hpp"

#include "server/flow_scheduler.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace hyms::server {

namespace {
/// How long a distributed search waits for peer replies.
constexpr Time kSearchTimeout = Time::msec(800);
/// RTCP sender-report interval and RTP payload cap of every media flow.
constexpr Time kRtcpSrInterval = Time::sec(1);
constexpr std::size_t kRtpMaxPayload = 1400;
}  // namespace

std::string to_string(SessionState state) {
  switch (state) {
    case SessionState::kAwaitingAuth: return "awaiting-auth";
    case SessionState::kReady: return "ready";
    case SessionState::kViewing: return "viewing";
    case SessionState::kPaused: return "paused";
    case SessionState::kSuspended: return "suspended";
    case SessionState::kClosed: return "closed";
  }
  return "?";
}

/// Server-side half of one control connection: the Fig. 4 state machine.
class MultimediaServer::ClientSession {
 public:
  ClientSession(MultimediaServer& server,
                std::unique_ptr<net::StreamConnection> conn,
                std::uint64_t seq)
      : server_(server), sim_(server.sim_), conn_(std::move(conn)),
        channel_(*conn_), session_key_(server.config_.name + "/session-" +
                                       std::to_string(seq)),
        last_peer_activity_(server.sim_.now()) {
    channel_.set_on_message(
        [this](std::vector<std::uint8_t> frame) { on_frame(std::move(frame)); });
    conn_->set_on_close([this] {
      if (state_ != SessionState::kClosed) teardown();
      server_.schedule_reap();
    });
  }

  /// Server crash: journal resume facts if mid-presentation, then vanish
  /// without a FIN (the caller destroys us; the client discovers the outage
  /// through its own timeouts).
  void journal_crash(std::vector<JournalEntry>& journal) const {
    if (state_ != SessionState::kViewing && state_ != SessionState::kPaused) {
      return;
    }
    if (pending_document_ == nullptr) return;
    JournalEntry entry;
    entry.user = user_;
    entry.document = pending_document_->name;
    entry.video_floor = granted_video_floor_;
    entry.audio_floor = granted_audio_floor_;
    for (const auto& [id, stream] : streams_) {
      entry.position_us =
          std::max(entry.position_us, stream->media_position().us());
    }
    journal.push_back(std::move(entry));
  }

  [[nodiscard]] SessionState state() const { return state_; }
  [[nodiscard]] bool closed() const { return state_ == SessionState::kClosed; }
  /// Safe to destroy: protocol closed AND the transport finished its FIN
  /// handshake (destroying earlier would strand the peer mid-close).
  [[nodiscard]] bool reapable() const { return closed() && conn_->closed(); }

 private:
  struct PendingSearch {
    explicit PendingSearch(sim::Simulator& sim) : timeout(sim) {}

    std::uint32_t id = 0;
    proto::SearchReply reply;
    std::size_t awaiting = 0;
    std::vector<std::unique_ptr<net::StreamConnection>> conns;
    std::vector<std::unique_ptr<net::MessageChannel>> chans;
    sim::Timer timeout;
  };

  void send(const proto::Message& msg) {
    // Replies echo the trace context of the request being handled; messages
    // sent outside a handler (suspend expiry, deferred search results) carry
    // the null context. Always-on, so frames match with telemetry off.
    channel_.send_message(proto::encode(msg, current_ctx_));
  }

  void protocol_error(const std::string& what) {
    ++server_.stats_.protocol_errors;
    send(proto::ErrorReply{what + " (state " + to_string(state_) + ")"});
  }

  void on_frame(std::vector<std::uint8_t> frame) {
    last_peer_activity_ = sim_.now();
    telemetry::TraceContext ctx;
    auto decoded = proto::decode(frame, &ctx);
    if (!decoded.ok()) {
      protocol_error("undecodable message: " + decoded.error().message);
      return;
    }
    current_ctx_ = ctx;
    const proto::Message& msg = decoded.value();
    bool span_open = false;
    if (ctx.valid()) {
      if (auto* hub = sim_.telemetry(); hub != nullptr && hub->tracing()) {
        // Step the request's flow through this session's server track and
        // wrap the handler in a span named after the message.
        auto& tr = hub->tracer();
        if (trace_track_ == telemetry::kInvalidTraceId) {
          trace_track_ = tr.track(session_key_);
        }
        const auto name = tr.name(proto::message_name(msg));
        tr.flow_step(trace_track_, name, sim_.now(), ctx.flow_id());
        tr.begin(trace_track_, name, sim_.now());
        span_open = true;
      }
    }
    std::visit([this](const auto& m) { handle(m); }, msg);
    if (span_open) {
      if (auto* hub = sim_.telemetry(); hub != nullptr && hub->tracing()) {
        hub->tracer().end(trace_track_, sim_.now());
      }
    }
    current_ctx_ = telemetry::TraceContext{};
  }

  // --- protocol handlers -----------------------------------------------------

  void handle(const proto::ConnectRequest& m) {
    if (state_ != SessionState::kAwaitingAuth) {
      protocol_error("ConnectRequest out of order");
      return;
    }
    switch (server_.users_.authenticate(m.user, m.credential)) {
      case AuthResult::kOk: {
        user_ = m.user;
        state_ = SessionState::kReady;
        server_.users_.log_login(m.user, sim_.now());
        const UserRecord* record = server_.users_.find(m.user);
        const PricingTier& tier = server_.pricing_.tier(record->contract);
        server_.ledger_.charge(m.user, tier.connect_fee, "connect");
        send(proto::ConnectReply{true, false, ""});
        break;
      }
      case AuthResult::kUnknownUser:
        send(proto::ConnectReply{false, true, "unknown user; please subscribe"});
        break;
      case AuthResult::kBadCredential:
        ++server_.stats_.auth_failures;
        send(proto::ConnectReply{false, false, "authentication failed"});
        break;
    }
  }

  void handle(const proto::SubscribeRequest& m) {
    if (state_ != SessionState::kAwaitingAuth) {
      protocol_error("SubscribeRequest out of order");
      return;
    }
    if (!server_.pricing_.has_tier(m.contract)) {
      send(proto::SubscribeReply{false, "unknown contract '" + m.contract + "'"});
      return;
    }
    UserRecord record;
    record.user = m.user;
    record.credential = m.credential;
    record.real_name = m.real_name;
    record.address = m.address;
    record.telephone = m.telephone;
    record.email = m.email;
    record.contract = m.contract;
    record.video_floor_level = m.video_floor_level;
    record.audio_floor_level = m.audio_floor_level;
    if (!server_.users_.subscribe(std::move(record))) {
      send(proto::SubscribeReply{false, "user name taken or empty"});
      return;
    }
    ++server_.stats_.subscriptions;
    user_ = m.user;
    state_ = SessionState::kReady;
    server_.users_.log_login(m.user, sim_.now());
    const PricingTier& tier = server_.pricing_.tier(m.contract);
    server_.ledger_.charge(m.user, tier.connect_fee, "connect");
    send(proto::SubscribeReply{true, ""});
  }

  void handle(const proto::TopicListRequest&) {
    if (!authenticated()) {
      protocol_error("TopicListRequest before authentication");
      return;
    }
    send(proto::TopicListReply{server_.documents_.list()});
  }

  void handle(const proto::DocumentRequest& m) {
    if (!authenticated()) {
      protocol_error("DocumentRequest before authentication");
      return;
    }
    const StoredDocument* doc = server_.documents_.find(m.document);
    if (doc == nullptr) {
      send(proto::DocumentReply{false, "no such document '" + m.document + "'",
                                ""});
      return;
    }
    const UserRecord* record = server_.users_.find(user_);
    const PricingTier& tier = server_.pricing_.tier(record->contract);
    // Effective floors: the subscription's, optionally degraded (never
    // improved) by the request — the paper's long-term recovery lets a
    // re-admitted session accept worse minimum quality to fit.
    int video_floor = record->video_floor_level;
    int audio_floor = record->audio_floor_level;
    if (m.video_floor_override >= 0) {
      video_floor = std::max(video_floor, int{m.video_floor_override});
    }
    if (m.audio_floor_override >= 0) {
      audio_floor = std::max(audio_floor, int{m.audio_floor_override});
    }
    // The flow scheduler computes the document's flow scenario (cached per
    // document + quality floors); admission reserves its minimum feasible
    // rate (every stream at the user's floor).
    const auto plan = server_.plan_for(*doc, video_floor, audio_floor);
    if (!plan.ok()) {
      send(proto::DocumentReply{false, plan.error().message, ""});
      return;
    }
    // The degradation ladder: rung 0 is the full request; each further rung
    // concedes one quality-floor notch on both media (clamped at the worst
    // level) and re-consults the flow-plan cache for its minimum rate.
    AdmissionControl::Request request;
    request.key = session_key_;
    request.tier_utilization = tier.admission_utilization;
    request.priority = tier.priority;
    request.ladder.push_back(
        AdmissionControl::Candidate{0, plan.value()->floor_total_bps()});
    int prev_video = video_floor;
    int prev_audio = audio_floor;
    for (int notch = 1; notch <= server_.admission_.config().degrade_steps;
         ++notch) {
      const int v = std::min(video_floor + notch, telemetry::kQoeLevels - 1);
      const int a = std::min(audio_floor + notch, telemetry::kQoeLevels - 1);
      if (v == prev_video && a == prev_audio) break;  // ladder saturated
      prev_video = v;
      prev_audio = a;
      const auto rung_plan = server_.plan_for(*doc, v, a);
      if (!rung_plan.ok()) continue;
      request.ladder.push_back(AdmissionControl::Candidate{
          notch, rung_plan.value()->floor_total_bps()});
    }

    AdmissionControl::WaiterHooks hooks;
    hooks.on_grant = [this, doc, video_floor, audio_floor, ctx = current_ctx_,
                      name = m.document](
                         const AdmissionControl::Decision& d) {
      grant_document(*doc, name, video_floor, audio_floor, d, ctx);
    };
    hooks.on_timeout = [this, ctx = current_ctx_](
                           const AdmissionControl::Decision& d) {
      ++server_.stats_.admission_rejections;
      proto::DocumentReply reply{false, d.reason, "",
                                 /*retryable_admission=*/true};
      reply.admission = 3;
      reply.retry_after_us = d.retry_after_us;
      const auto saved = current_ctx_;
      current_ctx_ = ctx;
      send(reply);
      current_ctx_ = saved;
    };
    hooks.on_failed = [](const util::Error&) {
      // Server crash with this request still queued: the process (and its
      // sockets) is gone, so no farewell reply — the client discovers the
      // loss through its transport and records the fate on its own side.
      // (No QoE note here: a per-trace entry written on the server's
      // partition would not land in the client's sealed black box when the
      // two live on different partitions.)
    };

    const auto decision = server_.admission_.evaluate(request, std::move(hooks));
    switch (decision.outcome) {
      case AdmissionControl::Outcome::kQueued: {
        proto::DocumentReply reply{false, decision.reason, "",
                                   /*retryable_admission=*/true};
        reply.admission = 2;
        reply.queue_position = decision.queue_position;
        send(reply);
        return;
      }
      case AdmissionControl::Outcome::kRejected: {
        ++server_.stats_.admission_rejections;
        proto::DocumentReply reply{false, decision.reason, "",
                                   /*retryable_admission=*/true};
        reply.admission = 3;
        reply.retry_after_us = decision.retry_after_us;
        send(reply);
        return;
      }
      case AdmissionControl::Outcome::kAdmitted:
      case AdmissionControl::Outcome::kDegraded:
        grant_document(*doc, m.document, video_floor, audio_floor, decision,
                       current_ctx_);
        return;
    }
  }

  /// Complete an admission grant — immediately, or deferred from the wait
  /// queue when `release` frees capacity. `ctx` is the trace context of the
  /// originating DocumentRequest so the (possibly much later) reply still
  /// joins its causal flow.
  void grant_document(const StoredDocument& doc, const std::string& name,
                      int video_floor, int audio_floor,
                      const AdmissionControl::Decision& decision,
                      const telemetry::TraceContext& ctx) {
    granted_video_floor_ =
        std::min(video_floor + decision.degraded_notches,
                 telemetry::kQoeLevels - 1);
    granted_audio_floor_ =
        std::min(audio_floor + decision.degraded_notches,
                 telemetry::kQoeLevels - 1);
    pending_document_ = &doc;
    server_.users_.log_lesson(user_, name);
    ++server_.stats_.documents_served;
    // Admission outcomes are logged client-side from the reply fields: a
    // per-trace QoE note written here would land on the SERVER partition's
    // hub ring, while the session seals its black box against the CLIENT
    // partition's ring — the two differ once the pair is split across
    // partitions, breaking byte-identity of the QoE export.
    proto::DocumentReply reply{true, "", doc.markup_text};
    reply.admission = decision.degraded_notches > 0 ? 1 : 0;
    reply.degraded_notches =
        static_cast<std::int8_t>(decision.degraded_notches);
    const auto saved = current_ctx_;
    current_ctx_ = ctx;
    send(reply);
    current_ctx_ = saved;
  }

  void handle(const proto::StreamSetup& m) {
    if (!authenticated() || pending_document_ == nullptr ||
        pending_document_->name != m.document) {
      protocol_error("StreamSetup without a matching DocumentRequest");
      return;
    }
    stop_all_streams();
    qos_ = std::make_unique<ServerQosManager>(sim_, server_.config_.qos);

    // The flow scenario was computed (and cached) at DocumentRequest, under
    // the floors granted there; this fetch is the cache's raison d'être —
    // setup re-consults it for free.
    const auto plan = server_.plan_for(*pending_document_,
                                       granted_video_floor_,
                                       granted_audio_floor_);
    proto::StreamSetupReply reply;
    reply.ok = true;
    if (!plan.ok()) {
      reply.ok = false;
      reply.reason = plan.error().message;
      send(reply);
      return;
    }
    for (const auto& spec : pending_document_->scenario.streams) {
      if (plan.value()->find(spec.id) == nullptr) {
        reply.ok = false;
        reply.reason = "no flow-plan entry for stream '" + spec.id + "'";
        break;
      }
      auto source = server_.catalog_.resolve(spec.source);
      if (!source.ok()) {
        reply.ok = false;
        reply.reason = source.error().message;
        break;
      }
      MediaStreamSession::Params params;
      params.sr_interval = kRtcpSrInterval;
      params.max_payload = kRtpMaxPayload;
      params.frame_cache = server_.config_.frame_cache.get();
      params.initial_level = 0;
      params.floor_level = spec.type == media::MediaType::kVideo
                               ? granted_video_floor_
                               : granted_audio_floor_;
      params.start_offset = Time::usec(std::max<std::int64_t>(
          0, m.resume_offset_us));
      params.trace = current_ctx_;

      std::unique_ptr<MediaStreamSession> session;
      if (spec.type == media::MediaType::kAudio ||
          spec.type == media::MediaType::kVideo) {
        const auto port_it =
            std::find_if(m.streams.begin(), m.streams.end(),
                         [&](const proto::StreamSetup::StreamPort& p) {
                           return p.stream_id == spec.id;
                         });
        if (port_it == m.streams.end() || port_it->rtp_port == 0) {
          reply.ok = false;
          reply.reason = "no RTP port offered for stream '" + spec.id + "'";
          break;
        }
        session = MediaStreamSession::make_rtp(
            server_.net_, server_.media_host(spec.type), source.value(), spec,
            net::Endpoint{conn_->remote().node, port_it->rtp_port}, params);
        const std::size_t stream = qos_->attach(session.get());
        session->set_on_feedback(
            [this, stream](const rtp::ReceiverFeedback& fb) {
              last_peer_activity_ = sim_.now();  // RTCP proves client life
              if (qos_) qos_->on_feedback(stream, fb);
            });
      } else {
        session = MediaStreamSession::make_object(
            server_.net_, server_.media_host(spec.type), source.value(), spec,
            params);
      }
      reply.streams.push_back(session->info());
      streams_[spec.id] = std::move(session);
    }

    if (!reply.ok) {
      stop_all_streams();
      send(reply);
      return;
    }
    for (auto& [id, session] : streams_) session->start_flow();
    state_ = SessionState::kViewing;
    viewing_began_ = sim_.now();
    arm_peer_monitor();
    send(reply);
  }

  void handle(const proto::Pause&) {
    if (state_ != SessionState::kViewing) {
      protocol_error("Pause while not viewing");
      return;
    }
    for (auto& [id, session] : streams_) session->pause();
    state_ = SessionState::kPaused;
  }

  void handle(const proto::Resume&) {
    if (state_ != SessionState::kPaused) {
      protocol_error("Resume while not paused");
      return;
    }
    for (auto& [id, session] : streams_) session->resume();
    state_ = SessionState::kViewing;
  }

  void handle(const proto::StopStream& m) {
    auto it = streams_.find(m.stream_id);
    if (it == streams_.end()) {
      protocol_error("StopStream: unknown stream '" + m.stream_id + "'");
      return;
    }
    it->second->stop();
  }

  void handle(const proto::SearchRequest& m) {
    if (!authenticated()) {
      protocol_error("SearchRequest before authentication");
      return;
    }
    ++server_.stats_.searches;
    start_search(m.token);
  }

  void handle(const proto::PeerSearchRequest& m) {
    // Server-to-server query: answered from the local store, no auth needed.
    ++server_.stats_.peer_queries_answered;
    proto::PeerSearchReply reply;
    reply.request_id = m.request_id;
    for (const auto& name : server_.documents_.search(m.token)) {
      reply.hits.push_back(proto::SearchHit{name, server_.config_.name});
    }
    send(reply);
  }

  void handle(const proto::PeerSearchReply& m) {
    if (!search_ || m.request_id != search_->id) return;
    for (const auto& hit : m.hits) search_->reply.hits.push_back(hit);
    if (search_->awaiting > 0 && --search_->awaiting == 0) finish_search();
  }

  void handle(const proto::Suspend&) {
    if (state_ != SessionState::kViewing && state_ != SessionState::kPaused &&
        state_ != SessionState::kReady) {
      protocol_error("Suspend out of order");
      return;
    }
    charge_viewing();
    stop_all_streams();
    server_.admission_.release(session_key_);
    state_ = SessionState::kSuspended;
    ++server_.stats_.suspends;
    const Time keepalive = server_.config_.suspend_keepalive;
    send(proto::SuspendAck{keepalive.us()});
    suspend_timer_.arm_after(keepalive, [this] {
      ++server_.stats_.suspend_expiries;
      send(proto::SuspendExpired{});
      teardown();
      conn_->close();
    });
  }

  void handle(const proto::ResumeSession& m) {
    if (state_ != SessionState::kSuspended || m.user != user_) {
      send(proto::ResumeSessionReply{false, "no suspended session"});
      return;
    }
    suspend_timer_.cancel();
    state_ = SessionState::kReady;
    send(proto::ResumeSessionReply{true, ""});
  }

  void handle(const proto::Disconnect&) {
    charge_viewing();
    teardown();
    conn_->close();
  }

  void handle(const proto::MailSend& m) {
    if (!authenticated()) {
      protocol_error("MailSend before authentication");
      return;
    }
    server_.deliver_mail(MailMessage{user_, m.to, m.subject, m.body,
                                     m.mime_type});
  }

  void handle(const proto::MailFetch& m) {
    if (!authenticated()) {
      protocol_error("MailFetch before authentication");
      return;
    }
    const auto& box = server_.mailbox(user_);
    if (m.index < 0 || m.index >= static_cast<std::int64_t>(box.size())) {
      protocol_error("MailFetch: no message " + std::to_string(m.index));
      return;
    }
    const MailMessage& mail = box[static_cast<std::size_t>(m.index)];
    send(proto::MailSend{mail.from, mail.subject, mail.body, mail.mime_type});
  }

  void handle(const proto::Annotate& m) {
    if (!authenticated()) {
      protocol_error("Annotate before authentication");
      return;
    }
    if (server_.documents_.find(m.document) == nullptr) {
      protocol_error("Annotate: unknown document '" + m.document + "'");
      return;
    }
    server_.add_annotation(user_, m.document, m.remark);
  }

  void handle(const proto::AnnotationListRequest& m) {
    if (!authenticated()) {
      protocol_error("annotation access before authentication");
      return;
    }
    proto::AnnotationListReply reply;
    reply.document = m.document;
    reply.remarks = server_.annotations(user_, m.document);
    send(reply);
  }

  void handle(const proto::MailList&) {
    if (!authenticated()) {
      protocol_error("mail access before authentication");
      return;
    }
    proto::MailList reply;
    for (const auto& mail : server_.mailbox(user_)) {
      reply.subjects.push_back(mail.from + ": " + mail.subject);
    }
    send(reply);
  }

  /// Client-bound message kinds arriving at the server are protocol misuse.
  template <typename T>
  void handle(const T& msg) {
    protocol_error("unexpected " + proto::message_name(proto::Message{msg}));
  }

  // --- internals ---------------------------------------------------------------

  [[nodiscard]] bool authenticated() const {
    return state_ != SessionState::kAwaitingAuth &&
           state_ != SessionState::kClosed;
  }

  void charge_viewing() {
    if (state_ != SessionState::kViewing && state_ != SessionState::kPaused) {
      return;
    }
    const UserRecord* record = server_.users_.find(user_);
    if (record == nullptr) return;
    const PricingTier& tier = server_.pricing_.tier(record->contract);
    const double minutes = (sim_.now() - viewing_began_).to_seconds() / 60.0;
    server_.ledger_.charge(user_, minutes * tier.per_minute, "viewing");
  }

  void stop_all_streams() {
    for (auto& [id, session] : streams_) session->stop();
    if (qos_) {
      qos_->detach_all();
      server_.retire_qos_stats(qos_->stats());
    }
    streams_.clear();
    qos_.reset();
  }

 public:
  [[nodiscard]] const ServerQosManager* qos_manager() const {
    return qos_.get();
  }

  void flush_telemetry() {
    for (auto& [id, stream] : streams_) stream->flush_telemetry();
    if (qos_) qos_->flush_telemetry();
  }

 private:

  void teardown() {
    if (state_ == SessionState::kClosed) return;
    stop_all_streams();
    // A session that dies while still queued for admission leaves the queue
    // silently (no grant/timeout callback into a dead session) BEFORE the
    // release below drains the queue into other waiters.
    server_.admission_.cancel_waiter(session_key_);
    server_.admission_.release(session_key_);
    // Every teardown path runs through here: a pending keepalive expiry (or
    // liveness probe) must never fire into a closed/replaced session.
    suspend_timer_.cancel();
    liveness_timer_.cancel();
    state_ = SessionState::kClosed;
    server_.schedule_reap();
  }

  /// Dead-peer detection (server side of outage tolerance): while flows are
  /// active, a client that has been silent — no control frames, no RTCP
  /// feedback — past dead_peer_timeout is presumed gone; tear down and
  /// release its admission reservation so re-admission of the recovered
  /// session isn't double-counted against capacity.
  void arm_peer_monitor() {
    liveness_timer_.arm_after(server_.config_.dead_peer_timeout / 2,
                              [this] { check_peer_liveness(); });
  }

  void check_peer_liveness() {
    if (state_ != SessionState::kViewing && state_ != SessionState::kPaused) {
      return;  // monitor ends with the presentation
    }
    bool flows_active = false;
    for (const auto& [id, stream] : streams_) {
      if (stream->is_rtp() && !stream->flow_complete() && !stream->stopped()) {
        flows_active = true;
        break;
      }
    }
    if (!flows_active) return;  // drained flows legitimately go quiet
    if (sim_.now() - last_peer_activity_ > server_.config_.dead_peer_timeout) {
      ++server_.stats_.dead_peer_teardowns;
      // No per-trace QoE note: the ring entry would land on the server's
      // partition, not the client's sealed box (see grant_document).
      LOG_INFO << server_.config_.name << ": session " << session_key_
               << " peer silent past "
               << server_.config_.dead_peer_timeout.str() << ", reaping";
      teardown();
      conn_->abort();
      return;
    }
    arm_peer_monitor();
  }

  void start_search(const std::string& token) {
    if (search_) {
      // The old search is destroyed later; its timeout must not fire first.
      search_->timeout.cancel();
      // Defer destruction of any in-flight peer channels.
      sim_.schedule_after(Time::zero(), [old = search_.release()] {
        delete old;
      });
    }
    search_ = std::make_unique<PendingSearch>(sim_);
    search_->id = next_search_id_++;
    for (const auto& name : server_.documents_.search(token)) {
      search_->reply.hits.push_back(proto::SearchHit{name, server_.config_.name});
    }
    search_->awaiting = server_.peers_.size();
    if (search_->awaiting == 0) {
      finish_search();
      return;
    }
    for (const auto& [peer_name, endpoint] : server_.peers_) {
      auto conn = net::StreamConnection::connect(server_.net_, server_.node_,
                                                 endpoint, server_.config_.tcp);
      auto chan = std::make_unique<net::MessageChannel>(*conn);
      chan->set_on_message([this](std::vector<std::uint8_t> frame) {
        auto decoded = proto::decode(frame);
        if (!decoded.ok()) return;
        if (const auto* reply =
                std::get_if<proto::PeerSearchReply>(&decoded.value())) {
          handle(*reply);
        }
      });
      chan->send_message(
          proto::encode(proto::PeerSearchRequest{token, search_->id}));
      search_->conns.push_back(std::move(conn));
      search_->chans.push_back(std::move(chan));
    }
    search_->timeout.arm_after(kSearchTimeout, [this] { finish_search(); });
  }

  void finish_search() {
    if (!search_) return;
    search_->timeout.cancel();
    send(search_->reply);
    // We may be inside a peer channel's callback: defer the teardown.
    sim_.schedule_after(Time::zero(),
                        [old = search_.release()] { delete old; });
  }

  MultimediaServer& server_;
  sim::Simulator& sim_;
  std::unique_ptr<net::StreamConnection> conn_;
  net::MessageChannel channel_;
  std::string session_key_;
  SessionState state_ = SessionState::kAwaitingAuth;
  std::string user_;
  const StoredDocument* pending_document_ = nullptr;
  std::map<std::string, std::unique_ptr<MediaStreamSession>> streams_;
  std::unique_ptr<ServerQosManager> qos_;
  Time viewing_began_;
  int granted_video_floor_ = 0;
  int granted_audio_floor_ = 0;
  Time last_peer_activity_;
  sim::Timer liveness_timer_{sim_};
  sim::Timer suspend_timer_{sim_};
  std::unique_ptr<PendingSearch> search_;
  std::uint32_t next_search_id_ = 1;
  /// Trace context of the request currently being handled (echoed on every
  /// reply sent from inside the handler); null outside handlers.
  telemetry::TraceContext current_ctx_;
  telemetry::TrackId trace_track_ = telemetry::kInvalidTraceId;
};

// --- MultimediaServer --------------------------------------------------------

MultimediaServer::MultimediaServer(net::Network& net, net::NodeId node,
                                   Config config)
    : net_(net), sim_(net.sim_at(node)), node_(node),
      config_(std::move(config)), admission_(config_.admission, &sim_) {
  if (config_.frame_cache == nullptr && config_.frame_cache_bytes > 0) {
    config_.frame_cache = std::make_shared<media::FrameCache>(
        media::FrameCache::Config{config_.frame_cache_bytes});
  }
  open_listener();
  // Plan-cache invalidation: re-adding a document drops its cached plans
  // (any floors); a catalog mutation can change every plan's rates, so it
  // clears the cache wholesale.
  documents_.set_on_mutation([this](const std::string& name) {
    std::erase_if(plan_cache_,
                  [&](const auto& kv) { return kv.first.document == name; });
  });
  catalog_.set_on_mutation([this] { plan_cache_.clear(); });
}

util::Result<const FlowPlan*> MultimediaServer::plan_for(
    const StoredDocument& doc, int video_floor, int audio_floor) {
  PlanKey key{doc.name, video_floor, audio_floor};
  if (auto it = plan_cache_.find(key); it != plan_cache_.end()) {
    ++stats_.plan_cache_hits;
    return &it->second;
  }
  ++stats_.plan_cache_misses;
  auto plan = FlowScheduler::plan(doc.scenario, catalog_, video_floor,
                                  audio_floor, &sim_);
  if (!plan.ok()) return plan.error();
  auto [it, inserted] =
      plan_cache_.emplace(std::move(key), std::move(plan.value()));
  return &it->second;
}

MultimediaServer::~MultimediaServer() = default;

void MultimediaServer::accept(std::unique_ptr<net::StreamConnection> conn) {
  ++stats_.sessions_accepted;
  sessions_.push_back(std::make_unique<ClientSession>(
      *this, std::move(conn), static_cast<std::uint64_t>(stats_.sessions_accepted)));
}

void MultimediaServer::open_listener() {
  listener_ = std::make_unique<net::StreamListener>(
      net_, node_, config_.control_port,
      [this](std::unique_ptr<net::StreamConnection> conn) {
        accept(std::move(conn));
      },
      config_.tcp);
}

void MultimediaServer::crash() {
  if (crashed_) return;
  ++stats_.crashes;
  crashed_ = true;
  LOG_INFO << config_.name << ": CRASH (" << sessions_.size()
           << " sessions lost)";
  journal_.clear();
  for (const auto& session : sessions_) session->journal_crash(journal_);
  // Queued admission waiters die with the process too: fail them with a
  // typed error while their sessions are still alive (the hooks reference
  // them), cancelling every queue-deadline timer so none leaks across the
  // crash/restart boundary.
  admission_.fail_waiters(util::Error{util::Error::Code::kNetwork,
                                      config_.name + " crashed"});
  // Destruction order mirrors a process death: sessions (flows, sockets,
  // timers — all RAII) and the listener vanish without any farewell
  // traffic; peers discover the outage through their own timeouts.
  for (const auto& session : sessions_) {
    if (const auto* manager = session->qos_manager()) {
      retire_qos_stats(manager->stats());
    }
  }
  sessions_.clear();
  listener_.reset();
  // RAM state dies with the process; durable stores (documents_, catalog_,
  // users_, ledger_, mailboxes_) survive, like disk.
  admission_.reset();
  plan_cache_.clear();
}

void MultimediaServer::restart() {
  if (!crashed_) return;
  ++stats_.restarts;
  crashed_ = false;
  LOG_INFO << config_.name << ": restart";
  open_listener();
}

void MultimediaServer::schedule_reap() {
  if (reap_timer_.armed()) return;
  reap_timer_.arm_after(Time::zero(), [this] {
    std::erase_if(sessions_, [](const std::unique_ptr<ClientSession>& s) {
      return s->reapable();
    });
  });
}

void MultimediaServer::add_peer(const std::string& name,
                                net::Endpoint control) {
  peers_[name] = control;
}

void MultimediaServer::attach_media_host(media::MediaType type,
                                         net::NodeId node) {
  media_hosts_[type] = node;
}

net::NodeId MultimediaServer::media_host(media::MediaType type) const {
  auto it = media_hosts_.find(type);
  return it == media_hosts_.end() ? node_ : it->second;
}

void MultimediaServer::deliver_mail(MailMessage message) {
  mailboxes_[message.to].push_back(std::move(message));
}

void MultimediaServer::add_annotation(const std::string& user,
                                      const std::string& document,
                                      std::string remark) {
  annotations_[{user, document}].push_back(std::move(remark));
}

const std::vector<std::string>& MultimediaServer::annotations(
    const std::string& user, const std::string& document) const {
  static const std::vector<std::string> kEmpty;
  auto it = annotations_.find({user, document});
  return it == annotations_.end() ? kEmpty : it->second;
}

const std::vector<MailMessage>& MultimediaServer::mailbox(
    const std::string& user) const {
  static const std::vector<MailMessage> kEmpty;
  auto it = mailboxes_.find(user);
  return it == mailboxes_.end() ? kEmpty : it->second;
}

std::size_t MultimediaServer::live_session_count() const {
  std::size_t count = 0;
  for (const auto& session : sessions_) {
    if (!session->closed()) ++count;
  }
  return count;
}

ServerQosManager::Stats MultimediaServer::qos_totals() const {
  ServerQosManager::Stats totals = retired_qos_;
  for (const auto& session : sessions_) {
    if (const auto* manager = session->qos_manager()) {
      const auto& s = manager->stats();
      totals.reports += s.reports;
      totals.bad_reports += s.bad_reports;
      totals.degrades += s.degrades;
      totals.degrades_video += s.degrades_video;
      totals.degrades_audio += s.degrades_audio;
      totals.upgrades += s.upgrades;
      totals.stops += s.stops;
    }
  }
  return totals;
}

void MultimediaServer::flush_telemetry() {
  admission_.flush_telemetry();
  if (auto* hub = sim_.telemetry()) {
    auto& m = hub->metrics();
    const std::string prefix = "server/" + config_.name + "/";
    m.set(prefix + "plan_cache_hits",
          static_cast<double>(stats_.plan_cache_hits));
    m.set(prefix + "plan_cache_misses",
          static_cast<double>(stats_.plan_cache_misses));
    if (config_.frame_cache) {
      config_.frame_cache->flush_telemetry(m, prefix + "frame_cache/");
    }
  }
  for (auto& session : sessions_) session->flush_telemetry();
}

std::vector<SessionState> MultimediaServer::session_states() const {
  std::vector<SessionState> states;
  for (const auto& session : sessions_) {
    if (!session->closed()) states.push_back(session->state());
  }
  return states;
}

}  // namespace hyms::server
