#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "net/tcp.hpp"
#include "proto/messages.hpp"
#include "server/admission.hpp"
#include "server/catalog.hpp"
#include "server/flow_scheduler.hpp"
#include "server/qos_manager.hpp"
#include "server/stream_session.hpp"
#include "server/users.hpp"
#include "sim/simulator.hpp"

namespace hyms::server {

/// Per-session protocol state (Fig. 4's application state transition
/// diagram, server view).
enum class SessionState : std::uint8_t {
  kAwaitingAuth = 0,  // connected, authentication pending
  kReady,             // authenticated + subscribed; may browse/search
  kViewing,           // document flows running
  kPaused,            // flows held at the user's request
  kSuspended,         // user followed a link to another server
  kClosed,
};

[[nodiscard]] std::string to_string(SessionState state);

/// A tutor<->student message held in the server's store-and-forward mailbox
/// (the SMTP/MIME substitution, DESIGN.md).
struct MailMessage {
  std::string from;
  std::string to;
  std::string subject;
  std::string body;
  std::string mime_type;
};

/// One multimedia/Hermes server (Fig. 3): multimedia database, media
/// servers (one stream session per flow), flow scheduling, QoS management,
/// admission, authentication/subscription/pricing, distributed search, and
/// the §5 application protocol over a TCP-like control connection.
class MultimediaServer {
 public:
  struct Config {
    std::string name = "hermes-1";
    /// Shown in the browser's server list ("a small description concerning
    /// the kind of lessons that are stored in it", §6.2.1).
    std::string description;
    net::Port control_port = 5000;
    /// How long a suspended session is kept before the server closes it.
    Time suspend_keepalive = Time::sec(30);
    /// Dead-peer detection: a viewing/paused session whose client has been
    /// silent (no control frames, no RTCP feedback) this long while flows
    /// are still active is torn down, releasing its admission reservation —
    /// the server-side mirror of the client's liveness detection.
    Time dead_peer_timeout = Time::sec(10);
    AdmissionControl::Config admission;
    ServerQosManager::Config qos;
    net::TcpParams tcp;
    /// Shared frame-synthesis cache for every media flow this server paces:
    /// frames are synthesized once per (content, quality, index) and shared
    /// zero-copy across sessions. Leave null to let the server own a private
    /// cache of `frame_cache_bytes`; install one explicitly to share it
    /// across servers (or across bench shards). Set frame_cache_bytes = 0
    /// (with a null pointer) to disable caching entirely — the per-frame
    /// synthesis reference path, byte-identical on the wire.
    std::shared_ptr<media::FrameCache> frame_cache;
    std::size_t frame_cache_bytes = 64ull << 20;
  };

  MultimediaServer(net::Network& net, net::NodeId node, Config config);
  ~MultimediaServer();
  MultimediaServer(const MultimediaServer&) = delete;
  MultimediaServer& operator=(const MultimediaServer&) = delete;

  [[nodiscard]] DocumentStore& documents() { return documents_; }
  [[nodiscard]] MediaCatalog& catalog() { return catalog_; }
  [[nodiscard]] SubscriptionDb& users() { return users_; }
  [[nodiscard]] PricingPolicy& pricing() { return pricing_; }
  [[nodiscard]] PricingLedger& ledger() { return ledger_; }
  [[nodiscard]] AdmissionControl& admission() { return admission_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const std::string& description() const {
    return config_.description;
  }
  [[nodiscard]] net::Endpoint control_endpoint() const {
    return net::Endpoint{node_, config_.control_port};
  }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Register a peer server for search fan-out (§6.2.2).
  void add_peer(const std::string& name, net::Endpoint control);

  /// Fault injection: hard-crash the server process. Every session (and its
  /// media flows, sockets, listener) is destroyed without so much as a FIN —
  /// clients discover the outage through timeouts — and in-RAM state
  /// (admission reservations, plan cache) is lost. Durable state (documents,
  /// catalog, user DB, ledger, mailboxes) survives, and per-session resume
  /// facts (user, document, granted floors, flow position) are journaled.
  void crash();
  /// Bring a crashed server back: re-opens the control listener and serves
  /// from the durable stores. Sessions are NOT revived — recovering clients
  /// re-authenticate, re-run admission, and resume via StreamSetup's
  /// resume_offset_us.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// One crashed session's resume facts (what a production server would
  /// write to its session journal before the power went out).
  struct JournalEntry {
    std::string user;
    std::string document;
    int video_floor = 0;
    int audio_floor = 0;
    std::int64_t position_us = 0;  // furthest flow position at crash time
  };
  [[nodiscard]] const std::vector<JournalEntry>& journal() const {
    return journal_;
  }

  /// Attach a dedicated media server host for one media type (Fig. 3 /
  /// §6.1: "for every media object ... a media server is associated with
  /// each Hermes server. These media servers may be located in the same
  /// host" — or, via this hook, on their own hosts). Flows of that type
  /// originate from the given node; unset types serve from this host.
  void attach_media_host(media::MediaType type, net::NodeId node);
  [[nodiscard]] net::NodeId media_host(media::MediaType type) const;

  /// Flow plan for a document at the given quality floors, served from the
  /// plan cache (keyed by document name + floors) or computed and cached on
  /// miss. The pointer stays valid until the cache is invalidated — a
  /// DocumentStore::add of that document or any catalog mutation. Consulted
  /// at DocumentRequest (admission) and again at StreamSetup.
  util::Result<const FlowPlan*> plan_for(const StoredDocument& doc,
                                         int video_floor, int audio_floor);

  /// Deliver mail directly (used by Hermes tooling/tests).
  void deliver_mail(MailMessage message);
  [[nodiscard]] const std::vector<MailMessage>& mailbox(
      const std::string& user) const;

  /// User annotations on a document (§5 "annotate ... with his own remarks").
  void add_annotation(const std::string& user, const std::string& document,
                      std::string remark);
  [[nodiscard]] const std::vector<std::string>& annotations(
      const std::string& user, const std::string& document) const;

  struct Stats {
    std::int64_t sessions_accepted = 0;
    std::int64_t auth_failures = 0;
    std::int64_t subscriptions = 0;
    std::int64_t documents_served = 0;
    std::int64_t admission_rejections = 0;
    std::int64_t searches = 0;
    std::int64_t peer_queries_answered = 0;
    std::int64_t suspends = 0;
    std::int64_t suspend_expiries = 0;
    std::int64_t protocol_errors = 0;
    std::int64_t crashes = 0;
    std::int64_t restarts = 0;
    std::int64_t dead_peer_teardowns = 0;
    std::int64_t plan_cache_hits = 0;
    std::int64_t plan_cache_misses = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t live_session_count() const;
  /// States of live sessions, for tests/benches that watch Fig. 4.
  [[nodiscard]] std::vector<SessionState> session_states() const;
  /// Aggregated QoS-manager counters across all sessions, past and present
  /// (grading actions survive session teardown for experiment accounting).
  [[nodiscard]] ServerQosManager::Stats qos_totals() const;

  /// Snapshot admission + per-session flow/QoS counters into the telemetry
  /// hub. No-op without a hub.
  void flush_telemetry();

 private:
  class ClientSession;
  friend class ClientSession;

  /// Plan-cache key: same document name + same quality floors -> same plan
  /// (FlowScheduler is deterministic given the catalog).
  struct PlanKey {
    std::string document;
    int video_floor = 0;
    int audio_floor = 0;
    bool operator==(const PlanKey&) const = default;
  };
  struct PlanKeyHash {
    [[nodiscard]] std::size_t operator()(const PlanKey& k) const noexcept {
      std::size_t h = std::hash<std::string>{}(k.document);
      h ^= static_cast<std::size_t>(k.video_floor) + 0x9e3779b9 + (h << 6) +
           (h >> 2);
      h ^= static_cast<std::size_t>(k.audio_floor) + 0x9e3779b9 + (h << 6) +
           (h >> 2);
      return h;
    }
  };

  void accept(std::unique_ptr<net::StreamConnection> conn);
  void open_listener();
  void schedule_reap();
  void retire_qos_stats(const ServerQosManager::Stats& s) {
    retired_qos_.reports += s.reports;
    retired_qos_.bad_reports += s.bad_reports;
    retired_qos_.degrades += s.degrades;
    retired_qos_.degrades_video += s.degrades_video;
    retired_qos_.degrades_audio += s.degrades_audio;
    retired_qos_.upgrades += s.upgrades;
    retired_qos_.stops += s.stops;
  }

  net::Network& net_;
  sim::Simulator& sim_;
  net::NodeId node_;
  Config config_;

  DocumentStore documents_;
  MediaCatalog catalog_;
  SubscriptionDb users_;
  PricingPolicy pricing_;
  PricingLedger ledger_;
  AdmissionControl admission_;

  std::unique_ptr<net::StreamListener> listener_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;
  std::map<std::string, net::Endpoint> peers_;
  std::map<media::MediaType, net::NodeId> media_hosts_;
  std::map<std::string, std::vector<MailMessage>> mailboxes_;
  /// (user, document) -> remarks.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      annotations_;
  std::unordered_map<PlanKey, FlowPlan, PlanKeyHash> plan_cache_;
  sim::Timer reap_timer_{sim_};
  bool crashed_ = false;
  std::vector<JournalEntry> journal_;
  Stats stats_;
  ServerQosManager::Stats retired_qos_;  // from torn-down sessions
};

}  // namespace hyms::server
