// The RC / metadata server (§3.1, §5.2).
//
// Each RcServer is a full master: it accepts reads and writes, stamps
// writes with the virtual time and its own identity, pushes updates to its
// replica peers, and runs periodic anti-entropy so a replica that was down
// longer than the transport's buffering window converges anyway.  This is
// the "true master-master update data model" §7 credits for RCDS being
// "inherently more scalable" than the LDAP-based MDS — bench_rcds_replication
// measures exactly that contrast (see SingleMasterRegistry below).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rcds/assertion.hpp"
#include "transport/rpc.hpp"

namespace snipe::rcds {

/// RPC tags used by the metadata service.
namespace tags {
inline constexpr std::uint32_t kGet = 110;
inline constexpr std::uint32_t kApply = 111;
inline constexpr std::uint32_t kReplicate = 112;  ///< one-way peer update
inline constexpr std::uint32_t kSyncDigest = 113;
inline constexpr std::uint32_t kPing = 114;
inline constexpr std::uint32_t kForward = 115;  ///< single-master mode only
}  // namespace tags

struct RcServerConfig {
  /// Anti-entropy period (0 disables).  Each round picks one peer
  /// round-robin and exchanges digests.
  SimDuration anti_entropy_period = duration::seconds(10);
  /// MD5 shared secret for request authentication ("" disables) — the
  /// authenticator the 1998 implementation used (§6).
  std::string shared_secret;
  /// Single-master mode: if true and this server is not peers().front(),
  /// writes are forwarded to the first peer (the master) instead of being
  /// applied locally.  Models the LDAP/X.500-style MDS §7 compares against;
  /// used only by the ablation bench.
  bool single_master = false;
};

struct RcServerStats {
  std::uint64_t gets = 0;
  std::uint64_t applies = 0;
  std::uint64_t replicated_in = 0;
  std::uint64_t replicated_out = 0;
  std::uint64_t anti_entropy_rounds = 0;
  std::uint64_t anti_entropy_repairs = 0;
  std::uint64_t forwards = 0;
};

class RcServer {
 public:
  static constexpr std::uint16_t kDefaultPort = 7100;

  RcServer(simnet::Host& host, std::uint16_t port = kDefaultPort, RcServerConfig config = {});

  /// Declares the other replicas of this registry.  Symmetric: every
  /// replica should list every other.
  void set_peers(std::vector<simnet::Address> peers);
  const std::vector<simnet::Address>& peers() const { return peers_; }

  simnet::Address address() const { return rpc_.address(); }
  /// The identity stamped into assertions this server accepts.
  const std::string& server_id() const { return server_id_; }

  /// Direct (in-process) accessors, used by tests and by co-located
  /// components; remote access goes through RcClient.
  std::vector<Assertion> get(const std::string& uri) const;
  std::vector<Assertion> apply(const std::string& uri, const std::vector<Op>& ops);

  const RcServerStats& stats() const { return stats_; }
  transport::RpcEndpoint& rpc() { return rpc_; }

 private:
  Result<Bytes> handle_get(const Payload& body);
  Result<Bytes> handle_apply(const Payload& body);
  void handle_replicate(const Payload& body);
  Result<Bytes> handle_sync_digest(const Payload& body);
  void broadcast_update(const std::string& uri, const std::vector<Assertion>& assertions);
  void anti_entropy_tick();

  transport::RpcEndpoint rpc_;
  simnet::Engine& engine_;
  RcServerConfig config_;
  std::string server_id_;
  std::vector<simnet::Address> peers_;
  std::size_t next_sync_peer_ = 0;
  std::map<std::string, Record> store_;
  /// Monotonic stamp: never reuse a (timestamp, origin) pair even if two
  /// writes land in the same event-time instant.
  SimTime last_stamp_ = 0;
  RcServerStats stats_;
  obs::Histogram* replication_lag_ms_;  ///< host's "rcds.replication_lag_ms"
  obs::Counter* catalog_hits_;          ///< host's "rcds.catalog_hits"
  obs::Counter* catalog_misses_;        ///< host's "rcds.catalog_misses"
  Logger log_;
  /// Declared last so the stats visitor retires before stats_ dies.
  obs::SourceHandle stats_source_;
};

/// A batch of assertions for one URI: the kGet and kApply reply, the
/// kReplicate notification and each record of a kSyncDigest reply.
struct Update {
  std::string uri;
  std::vector<Assertion> assertions;

  template <class Io>
  void fields(Io& io) {
    io(uri, assertions);
  }
};

/// The kApply request.
struct ApplyRequest {
  std::string uri;
  std::vector<Op> ops;

  template <class Io>
  void fields(Io& io) {
    io(uri, ops);
  }
};

}  // namespace snipe::rcds
