// Resource managers (§3.5), derived from PVM's General Resource Manager
// but made *redundant*: "For the sake of redundancy, any host may be
// managed by multiple resource managers" — the contrast with PVM's
// centralized, single-point-of-failure RM that §2.2 calls out and
// bench_rm_scalability measures.
//
// Duties implemented:
//   * track a pool of managed hosts: liveness + load, polled from the
//     daemons and cross-checked against RC host metadata;
//   * allocation: satisfy a spawn request by choosing the least-loaded
//     live host matching the environment spec (§5.5);
//   * active mode ("the resource manager acts as a proxy for the
//     requester"): sign an authorization and forward the spawn to the
//     chosen daemon; passive mode: return a reservation (host + signed
//     authorization) and let the requester spawn;
//   * certificate-authority duties (§4): validate a user's signed grant
//     and the requesting host's attestation, then issue the RM's own
//     signed authorization for the daemon.
#pragma once

#include <map>

#include "crypto/identity.hpp"
#include "crypto/session.hpp"
#include "daemon/daemon.hpp"
#include "obs/metrics.hpp"
#include "rcds/client.hpp"
#include "transport/rpc.hpp"

namespace snipe::rm {

namespace tags {
inline constexpr std::uint32_t kAllocate = 140;  ///< active-mode spawn
inline constexpr std::uint32_t kReserve = 141;   ///< passive-mode reservation
inline constexpr std::uint32_t kAuthorize = 142; ///< §4 two-certificate flow
inline constexpr std::uint32_t kPing = 143;
}  // namespace tags

struct RmConfig {
  /// Issuers trusted to identify users and hosts (§4).
  crypto::TrustStore trust;
};

struct RmStats {
  std::uint64_t allocations = 0;
  std::uint64_t reservations = 0;
  std::uint64_t allocation_failures = 0;
  std::uint64_t authorizations_issued = 0;
  std::uint64_t authorizations_rejected = 0;
  std::uint64_t sealed_spawns = 0;  ///< spawns sent over a §4 session
  std::uint64_t polls = 0;
};

/// A passive-mode reservation: where to spawn and the signed permission.
struct Reservation {
  std::string host;
  simnet::Address daemon;
  Bytes authorization;  ///< encoded SignedStatement for SpawnRequest

  template <class Io>
  void fields(Io& io) {
    io(host, daemon, authorization);
  }
};

class ResourceManager {
 public:
  static constexpr std::uint16_t kDefaultPort = 7300;
  /// Health-poll period.
  static constexpr SimDuration kMonitorPeriod = duration::seconds(2);
  /// Hosts missing this many consecutive polls are considered dead.
  static constexpr int kDeadAfterMisses = 2;
  /// CPU time one allocation decision costs the RM (matching resources,
  /// policy checks, signing).  Decisions serialize on the RM — this is
  /// exactly why §2.2 calls PVM's centralized resource manager "a
  /// bottleneck for a very large virtual machine", and what redundant RMs
  /// parallelize.
  static constexpr SimDuration kDecisionTime = duration::milliseconds(2);

  ResourceManager(simnet::Host& host, std::vector<simnet::Address> rc_replicas,
                  crypto::Principal principal, std::uint16_t port = kDefaultPort,
                  RmConfig config = {});

  /// Adds a host to the managed pool and registers this RM as one of its
  /// brokers in the host metadata (§5.2.1).  Host facts (arch, cpus) are
  /// pulled from RC.
  void manage_host(const std::string& host_name, const simnet::Address& daemon);

  simnet::Address address() const { return rpc_.address(); }
  std::string url() const;
  const crypto::Principal& principal() const { return principal_; }

  /// Chooses a host for the request (shared by allocate/reserve paths).
  Result<std::string> select_host(const daemon::SpawnRequest& request) const;

  /// Signs a spawn authorization for `program` on `host` (§4).
  Bytes sign_authorization(const std::string& program, const std::string& host) const;

  /// §4's efficiency optimization: establishes an authenticated session
  /// with `host_name`'s daemon (whose public key is read from the host's
  /// RC metadata).  Once established, allocations to that host go over the
  /// session as sealed requests with *no per-spawn RSA signature*.
  void establish_session(const std::string& host_name,
                         std::function<void(Result<void>)> done);
  bool has_session(const std::string& host_name) const {
    auto it = hosts_.find(host_name);
    return it != hosts_.end() && it->second.session != nullptr;
  }

  std::size_t live_hosts() const;
  const RmStats& stats() const { return stats_; }
  transport::RpcEndpoint& rpc() { return rpc_; }

 private:
  struct HostInfo {
    simnet::Address daemon;
    simnet::Address ping;  ///< the daemon's raw health port
    std::string arch;
    int cpus = 1;
    double load = 0;
    int missed_polls = 0;
    bool alive = true;
    bool pong_seen = true;  ///< did the last probe get answered?
    /// §4 authenticated channel, when established.
    std::shared_ptr<crypto::Session> session;
  };

  /// Health polling uses single raw datagrams on the daemons' ping ports —
  /// deliberately unreliable: a retried liveness probe measures the
  /// transport's persistence, not the host's health.  Each round first
  /// scores the previous round's answers, then probes again.
  void poll_hosts();
  /// Serializes `work` behind earlier decisions, charging kDecisionTime.
  void queue_decision(std::function<void()> work);
  void handle_allocate(const simnet::Address& from, const Payload& body,
                       transport::RpcEndpoint::Responder respond);
  Result<Bytes> handle_reserve(const Payload& body);
  Result<Bytes> handle_authorize(const Payload& body);

  transport::RpcEndpoint rpc_;
  simnet::Engine& engine_;
  RmConfig config_;
  crypto::Principal principal_;
  rcds::RcClient rc_;
  std::map<std::string, HostInfo> hosts_;
  std::uint16_t ping_port_ = 0;
  SimTime busy_until_ = 0;  ///< decision queue head (see kDecisionTime)
  Rng session_rng_{0xbeef5e551ULL};  ///< padding/key material for §4 sessions
  RmStats stats_;
  obs::Histogram* spawn_latency_ms_;  ///< host's "rm.spawn_latency_ms"
  Logger log_;
  /// Declared last so the stats visitor retires before stats_ dies.
  obs::SourceHandle stats_source_;
};

/// Body of a kAuthorize request: the §4 two-certificate bundle.
struct AuthorizeRequest {
  crypto::Certificate user_cert;
  crypto::SignedStatement user_grant;   ///< "user X grants process P on host H"
  crypto::Certificate host_cert;
  crypto::SignedStatement host_attest;  ///< "host H requests for process P"
  std::string program;
  std::string target_host;

  template <class Io>
  void fields(Io& io) {
    io(codec::in_blob(user_cert), codec::in_blob(user_grant), codec::in_blob(host_cert),
       codec::in_blob(host_attest), program, target_host);
  }
};

/// Canonical payloads the user and requesting host sign (§4).
Bytes user_grant_payload(const std::string& user, const std::string& program,
                         const std::string& requesting_host);
Bytes host_attest_payload(const std::string& host, const std::string& program);

}  // namespace snipe::rm
