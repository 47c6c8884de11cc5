// The SNIPE client library: globally named processes (§3.4, §5.2.3, §5.6).
//
// A SnipeProcess is one endpoint of the metacomputer.  It has a
// distinguished URN, publishes its communication address and host as RC
// metadata, and exchanges tagged messages with any other process by URN —
// "any SNIPE process can potentially communicate ... with any other
// process" (§3.1); there is no virtual machine boundary.
//
// Delivery path: resolve URN -> address through RC (cached), then an
// acknowledged call over SRUDP.  If the destination moved (migration) or
// died, the cached address stops acking; the library re-resolves through
// RC and retries — exactly the paper's §5.6 behaviour ("Any processes that
// do not notice its migration ... will find its new location via the RC
// servers").  Combined with SRUDP's sender-side buffering, "processes with
// open communications are guaranteed no loss of data while migration is in
// progress".
//
// Self-initiated migration (§5.6: "the migrating process initiating its
// own migration") is `migrate_to`: the state moves to a new host, RC is
// updated, every process on the notify list is told directly, and the old
// incarnation lingers briefly as a relay/redirect.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "daemon/daemon.hpp"
#include "rcds/client.hpp"
#include "rm/resource_manager.hpp"
#include "transport/rpc.hpp"

namespace snipe::core {

namespace tags {
inline constexpr std::uint32_t kDeliver = 150;       ///< user message (acked)
inline constexpr std::uint32_t kMigrated = 151;      ///< notify-list migration notice
inline constexpr std::uint32_t kMcastJoin = 152;
inline constexpr std::uint32_t kMcastSend = 153;     ///< origin -> router
inline constexpr std::uint32_t kMcastRelay = 154;    ///< router -> router
inline constexpr std::uint32_t kMcastDeliver = 155;  ///< router -> member
inline constexpr std::uint32_t kHttpRequest = 156;   ///< console gateway
}  // namespace tags

struct ProcessStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered_in = 0;
  std::uint64_t re_resolutions = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t relayed = 0;
  std::uint64_t duplicates_dropped = 0;
};

class SnipeProcess {
 public:
  /// (source URN, user tag, payload) delivery callback.
  using MessageHandler =
      std::function<void(const std::string& src_urn, std::uint32_t tag, Bytes body)>;
  using DoneHandler = std::function<void(Result<void>)>;
  using SpawnHandler = std::function<void(Result<daemon::SpawnReply>)>;

  /// Resolution cache entries expire after this long.
  static constexpr SimDuration kResolveTtl = duration::seconds(30);
  /// Delivery attempts before giving up (each attempt re-resolves).
  static constexpr int kDeliveryAttempts = 3;
  /// Per-attempt acknowledgement timeout.
  static constexpr SimDuration kDeliveryTimeout = duration::seconds(2);
  /// How long the old incarnation relays after migration (§5.6: "act as a
  /// relay or redirect for a short period").
  static constexpr SimDuration kRelayGrace = duration::seconds(10);

  /// Creates the process on `host`, binds an endpoint, registers the URN.
  SnipeProcess(simnet::Host& host, const std::string& name,
               std::vector<simnet::Address> rc_replicas);
  ~SnipeProcess();

  const std::string& urn() const { return urn_; }
  simnet::Address address() const { return rpc_->address(); }
  simnet::Host& host() { return *host_; }

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }

  /// Sends a tagged message to another process by URN.  `done` (optional)
  /// fires when the destination acknowledged, or with the final error.
  ///
  /// §5.7 replicated processes: if the destination's registered address is
  /// a multicast group URN (a "pseudo-process ... with the multicast group
  /// listed as the communications URL"), the message is multicast to every
  /// replica through the group's routers instead; members receive it via
  /// their MulticastGroup handler as an encoded UserMessage.
  void send(const std::string& dst_urn, std::uint32_t tag, Bytes body,
            DoneHandler done = nullptr);

  /// Registers `pseudo_urn` as a §5.7 replicated pseudo-process backed by
  /// the multicast group `group_urn`.
  void register_pseudo_process(const std::string& pseudo_urn, const std::string& group_urn,
                               DoneHandler done = nullptr);

  /// Registers `watcher_urn` on this process's notify list (§5.2.3); the
  /// watcher is told directly when this process migrates.
  void add_to_notify_list(const std::string& watcher_urn, DoneHandler done = nullptr);

  /// Spawn helpers (§5.5).  `spawn_via_host` first consults the host's RC
  /// metadata: "If the RC metadata for a host contains a list of brokers,
  /// the request to spawn is sent to one of the brokers for that host."
  void spawn_via_rm(const simnet::Address& rm, daemon::SpawnRequest request,
                    SpawnHandler done);
  void spawn_via_host(const std::string& host_name, daemon::SpawnRequest request,
                      SpawnHandler done);

  /// Self-initiated migration (§5.6).  Moves this process's identity to
  /// `new_host`; completes with the address change done, RC updated,
  /// notify list informed, and this (old) incarnation demoted to a relay
  /// that forwards for kRelayGrace and then falls silent.  The message
  /// handler transfers to the new incarnation.
  void migrate_to(simnet::Host& new_host, DoneHandler done = nullptr);

  /// URN -> current address resolution with caching.
  void resolve(const std::string& urn, std::function<void(Result<simnet::Address>)> done);
  void invalidate_resolution(const std::string& urn) { resolve_cache_.erase(urn); }

  /// Internal: multicast groups register here so one endpoint can serve
  /// many groups (dispatch is by group URN inside the message).
  void register_group(const std::string& group_urn, class MulticastGroup* group);
  void unregister_group(const std::string& group_urn);

  rcds::RcClient& rc() { return *rc_; }
  transport::RpcEndpoint& rpc() { return *rpc_; }
  simnet::Engine& engine() { return *engine_; }
  const ProcessStats& stats() const { return stats_; }

 private:
  friend class MulticastGroup;
  void bind_handlers();
  void register_in_rc();
  void attempt_send(const std::string& dst_urn, Bytes wire, int attempts_left,
                    DoneHandler done, bool resolve_fresh);
  /// §5.7 pseudo-process delivery: pushes `wire` (an encoded UserMessage)
  /// into the group's router mesh without being a member.
  void send_to_group(const std::string& group_urn, Bytes wire, DoneHandler done);

  simnet::Host* host_;
  simnet::Engine* engine_;
  std::string urn_;
  std::unique_ptr<transport::RpcEndpoint> rpc_;
  std::unique_ptr<rcds::RcClient> rc_;
  MessageHandler handler_;
  struct CachedAddress {
    simnet::Address address;
    SimTime expires;
  };
  std::map<std::string, CachedAddress> resolve_cache_;
  std::vector<std::string> notify_list_;  ///< mirrors our RC notify metadata
  std::map<std::string, class MulticastGroup*> groups_;
  std::uint64_t pseudo_seq_ = 1;  ///< msg ids for §5.7 group sends
  ProcessStats stats_;
  Logger log_;
};

/// Wire form of a user message.
struct UserMessage {
  std::string src_urn;
  std::uint32_t tag = 0;
  Bytes body;

  template <class Io>
  void fields(Io& io) {
    io(src_urn, tag, body);
  }
};

/// kMigrated notice: process `urn` now lives at `address`.
struct MigrationNotice {
  std::string urn;
  simnet::Address address;

  template <class Io>
  void fields(Io& io) {
    io(urn, address);
  }
};

}  // namespace snipe::core
