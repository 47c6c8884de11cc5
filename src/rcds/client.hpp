// RC resolver client (§3.4 "Resource location").
//
// Wraps any RpcEndpoint with the metadata operations every SNIPE component
// needs, with replica failover: requests go to a preferred replica and
// rotate to the others on timeout — replication is what gave the UTK
// testbed its "almost perfect level of availability" (§6), and
// bench_availability measures this client against failing replicas.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "rcds/assertion.hpp"
#include "rcds/server.hpp"
#include "transport/rpc.hpp"

namespace snipe::rcds {

struct RcClientConfig {
  /// Per-replica attempt timeout; total worst case is this times replicas.
  SimDuration try_timeout = duration::milliseconds(800);
};

struct RcClientStats {
  std::uint64_t lookups = 0;
  std::uint64_t writes = 0;
  std::uint64_t failovers = 0;   ///< attempts that moved to another replica
  std::uint64_t failures = 0;    ///< operations that exhausted all replicas
};

class RcClient {
 public:
  using AssertionsHandler = std::function<void(Result<std::vector<Assertion>>)>;
  using ValuesHandler = std::function<void(Result<std::vector<std::string>>)>;
  using DoneHandler = std::function<void(Result<void>)>;

  RcClient(transport::RpcEndpoint& rpc, std::vector<simnet::Address> replicas,
           RcClientConfig config = {});

  /// Full metadata for a URI.
  void get(const std::string& uri, AssertionsHandler done);
  /// Applies a batch of mutations.
  void apply(const std::string& uri, std::vector<Op> ops, AssertionsHandler done);

  // Sugar over get/apply.
  void lookup(const std::string& uri, const std::string& name, ValuesHandler done);
  void set(const std::string& uri, const std::string& name, const std::string& value,
           DoneHandler done);
  void add(const std::string& uri, const std::string& name, const std::string& value,
           DoneHandler done);
  void remove(const std::string& uri, const std::string& name, const std::string& value,
              DoneHandler done);

  /// The endpoint this client calls through.
  transport::RpcEndpoint& rpc() const { return rpc_; }
  const std::vector<simnet::Address>& replicas() const { return replicas_; }
  const RcClientStats& stats() const { return stats_; }

 private:
  void attempt(std::uint32_t tag, Bytes body, std::size_t replica_index, int tries_left,
               AssertionsHandler done);
  /// Replica new operations start at: fewest recent failures, the sticky
  /// preference and then list order breaking ties.
  std::size_t healthiest() const;

  transport::RpcEndpoint& rpc_;
  std::vector<simnet::Address> replicas_;
  RcClientConfig config_;
  std::size_t preferred_ = 0;
  /// Recent failure count per replica (capped).  Bumped when an attempt at
  /// that replica fails, zeroed on success; the *other* replicas decay by
  /// one per success so a recovered replica eventually gets re-probed
  /// instead of being shunned forever.
  std::vector<int> fails_;
  /// Liveness token captured (weakly) by in-flight RPC callbacks: a client
  /// can be destroyed with operations outstanding (process migration tears
  /// the owning SnipeProcess down mid-call), and a late response must not
  /// touch the freed client.  The result is still delivered to `done`,
  /// which is captured by value; only the bookkeeping is skipped.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  RcClientStats stats_;
  /// Visitor for "rcds.client.*" in the host's registry; declared last so
  /// it retires (folds into retained totals) before stats_ dies.
  obs::SourceHandle stats_source_;
};

}  // namespace snipe::rcds
