// Wide-area reliable multicast groups (§5.2.4, §5.4).
//
// "Multicast messages are sent to one or more host daemons which are
//  acting as routers for that particular multicast group. ... Whenever a
//  process joins a multicast group, its host daemon heuristically
//  determines (based on the presence or absence of other routers in the
//  group ...) whether it should become a router for that group."
//
// Implementation:
//   * routers register themselves in the group's RC metadata
//     (group:router = their URL);
//   * the join heuristic: become a router when the group has fewer than
//     `desired_routers`, or when none of the existing routers sits on a
//     network we share (the paper's "networks to which those routers are
//     attached" clause);
//   * a member registers its (urn, address) with every reachable router;
//   * a sender pushes each message to ⌊n/2⌋+1 routers ("any message sent
//     to that group is initially sent to more than half of the routers");
//   * each router delivers to its registered members and relays to the
//     other routers, with (origin, msg id) duplicate suppression at both
//     routers and members.
// Together these guarantee a delivery path to every member that can reach
// at least one live router, across any single router failure.
//
// NOTE (from the paper, kept faithfully): "this type of Multicast group is
// not designed for high performance of closely coupled processes as in
// MPI ... but rather for reliable group communication across the
// Internet."  The high-performance single-segment protocol is
// transport::EthMcastEndpoint.
#pragma once

#include <set>

#include "core/process.hpp"

namespace snipe::core {

struct GroupConfig {
  /// The election heuristic tops the group up to this many routers.
  int desired_routers = 3;
};

struct GroupStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t router_forwards = 0;
  std::uint64_t router_relays = 0;
};

/// The on-wire multicast payload of kMcastSend, kMcastRelay and
/// kMcastDeliver (shared by group members and by §5.7 pseudo-process
/// senders, who multicast without joining).
struct McastPayload {
  std::string group;
  std::string origin;
  std::uint64_t msg_id = 0;
  Bytes body;

  template <class Io>
  void fields(Io& io) {
    io(group, origin, msg_id, body);
  }
  std::string dedup_key() const { return origin + "#" + std::to_string(msg_id); }
};

/// kMcastJoin request: member `urn` at `address` registers with a router.
struct JoinRequest {
  std::string group;
  std::string urn;
  simnet::Address address;

  template <class Io>
  void fields(Io& io) {
    io(group, urn, address);
  }
};

/// One process's membership of one multicast group (it may also be hosting
/// a router for the group — see `is_router`).
class MulticastGroup {
 public:
  using GroupMessageHandler =
      std::function<void(const std::string& src_urn, Bytes body)>;

  /// Period for refreshing the router list / registrations.
  static constexpr SimDuration kRefreshPeriod = duration::seconds(5);
  /// Memberships are soft state: a router forgets a member that has not
  /// re-registered within this long (dead members stop receiving
  /// deliveries instead of accumulating undeliverable traffic).
  static constexpr SimDuration kMembershipTtl = duration::seconds(20);
  /// A member that fails to reach a router this many consecutive refreshes
  /// deregisters it from the group metadata (§5.2.4's router-set change).
  static constexpr int kRouterPruneAfter = 3;

  /// Joins `process` to the group named by `group_urn` (§5.2.4 "The name
  /// of the multicast group (a URN or URL)").  `ready` fires when router
  /// discovery/election and registration complete.
  MulticastGroup(SnipeProcess& process, const std::string& group_urn,
                 GroupConfig config = {},
                 std::function<void(Result<void>)> ready = nullptr);
  ~MulticastGroup();

  const std::string& group_urn() const { return group_urn_; }
  bool is_router() const { return router_; }

  void set_handler(GroupMessageHandler handler) { handler_ = std::move(handler); }

  /// Multicasts to the whole group "as if it were a single process" (§5.2.4).
  void send(Bytes body);

  /// Leaves the group (deregisters; a hosted router keeps serving until
  /// destruction so in-flight traffic drains).
  void leave();

  const GroupStats& stats() const { return stats_; }
  std::size_t known_routers() const { return routers_.size(); }

  /// Internal entry points invoked by SnipeProcess's dispatch; on_mcast
  /// forwards `wire`, the encoding of `msg`, as received.
  Result<Bytes> on_join(const JoinRequest& join);
  void on_mcast(const McastPayload& msg, const Payload& wire, bool is_relay);
  void on_deliver(McastPayload msg);

 private:
  struct Member {
    simnet::Address address;
    SimTime expires = 0;
  };
  struct RouterState {
    /// Members registered with this router (soft state): urn -> entry.
    std::map<std::string, Member> members;
    /// Other routers we relay to.
    std::set<std::string> seen;  ///< "origin#msgid" duplicate filter
  };

  void refresh(std::function<void(Result<void>)> ready);
  void maybe_elect_self(const std::vector<simnet::Address>& routers,
                        std::function<void(Result<void>)> ready);
  void register_with_routers();
  std::string router_url() const;

  SnipeProcess& process_;
  std::string group_urn_;
  GroupConfig config_;
  GroupMessageHandler handler_;
  std::vector<simnet::Address> routers_;  ///< current known routers
  std::map<simnet::Address, int> join_failures_;  ///< consecutive, per router
  bool router_ = false;
  std::string registered_router_url_;  ///< what we last wrote to RC
  RouterState router_state_;
  std::set<std::string> member_seen_;  ///< member-side duplicate filter
  std::uint64_t next_msg_id_ = 1;
  simnet::TimerId refresh_timer_;
  bool left_ = false;
  GroupStats stats_;
  Logger log_;
};

}  // namespace snipe::core
