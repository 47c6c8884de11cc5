#include "core/group.hpp"

#include <algorithm>
#include <limits>

#include "files/fileserver.hpp"
#include "util/uri.hpp"

namespace snipe::core {

MulticastGroup::MulticastGroup(SnipeProcess& process, const std::string& group_urn,
                               GroupConfig config, std::function<void(Result<void>)> ready)
    : process_(process),
      group_urn_(group_urn),
      config_(config),
      log_("group@" + process.urn() + "/" + group_urn, process.host().clock()) {
  process_.register_group(group_urn_, this);
  refresh(std::move(ready));
}

MulticastGroup::~MulticastGroup() {
  process_.engine().cancel(refresh_timer_);
  process_.unregister_group(group_urn_);
}

std::string MulticastGroup::router_url() const {
  auto addr = process_.address();
  return "snipe://" + addr.host + ":" + std::to_string(addr.port) + "/mcast";
}

void MulticastGroup::refresh(std::function<void(Result<void>)> ready) {
  // Periodic re-discovery keeps the router list fresh as routers come and
  // go (§5.2.4's notify list for "the set of multicast routers changes" is
  // modelled as polling the registry on the virtual clock).
  refresh_timer_ =
      process_.engine().schedule_weak(kRefreshPeriod, [this] { refresh(nullptr); });
  if (!process_.host().up() && ready == nullptr) return;  // host is down
  process_.rc().lookup(
      group_urn_, rcds::names::kGroupRouter,
      [this, ready = std::move(ready)](Result<std::vector<std::string>> r) {
        if (!r) {
          if (ready) ready(r.error());
          return;
        }
        std::vector<simnet::Address> routers;
        for (const auto& url : r.value()) {
          if (auto uri = parse_uri(url); uri.ok())
            routers.push_back(simnet::Address{uri.value().host,
                                              static_cast<std::uint16_t>(uri.value().port)});
        }
        std::sort(routers.begin(), routers.end());
        routers_ = routers;
        // If our process migrated, the router URL we registered points at
        // the old host: move the registration to the new address.
        if (router_ && !registered_router_url_.empty() &&
            registered_router_url_ != router_url()) {
          log_.debug("re-registering router after migration: ", router_url());
          process_.rc().remove(group_urn_, rcds::names::kGroupRouter,
                               registered_router_url_, [](Result<void>) {});
          process_.rc().add(group_urn_, rcds::names::kGroupRouter, router_url(),
                            [](Result<void>) {});
          registered_router_url_ = router_url();
          routers_.push_back(process_.address());
          std::sort(routers_.begin(), routers_.end());
        }
        maybe_elect_self(routers, std::move(ready));
      });
}

void MulticastGroup::maybe_elect_self(const std::vector<simnet::Address>& routers,
                                      std::function<void(Result<void>)> ready) {
  // Election heuristic (§5.4): become a router if the group is short of
  // routers, or if no existing router shares a network with us.
  bool shares_network = false;
  for (const auto& r : routers) {
    if (process_.host().world()->net_distance(process_.host().name(), r.host) <
        simnet::World::kUnreachable)
      shares_network = true;
  }
  bool should_host = !router_ && !left_ &&
                     (static_cast<int>(routers.size()) < config_.desired_routers ||
                      (!routers.empty() && !shares_network));
  bool already_registered =
      std::find(routers_.begin(), routers_.end(), process_.address()) != routers_.end();

  if (should_host && !already_registered) {
    router_ = true;
    registered_router_url_ = router_url();
    routers_.push_back(process_.address());
    std::sort(routers_.begin(), routers_.end());
    log_.debug("electing self as router (", routers.size(), " existing)");
    process_.rc().add(group_urn_, rcds::names::kGroupRouter, router_url(),
                      [this, ready = std::move(ready)](Result<void> r) {
                        if (!r) {
                          if (ready) ready(r);
                          return;
                        }
                        register_with_routers();
                        if (ready) ready(ok_result());
                      });
    return;
  }
  register_with_routers();
  if (ready) ready(ok_result());
}

void MulticastGroup::register_with_routers() {
  if (left_) return;
  Bytes join = encode(JoinRequest{group_urn_, process_.urn(), process_.address()});
  for (const auto& router : routers_) {
    if (router == process_.address()) {
      // Register with our own router directly.
      router_state_.members[process_.urn()] =
          Member{process_.address(), process_.engine().now() + kMembershipTtl};
      continue;
    }
    process_.rpc().call(
        router, tags::kMcastJoin, join,
        [this, router](Result<Payload> r) {
          if (r.ok()) {
            join_failures_.erase(router);
            return;
          }
          // A router that stops answering joins is gone (died, or its
          // process migrated away).  After a few misses, retract its RC
          // registration so the whole group stops addressing it — the
          // §5.2.4 "set of multicast routers changes" event.
          if (++join_failures_[router] < kRouterPruneAfter) return;
          join_failures_.erase(router);
          std::string url = "snipe://" + router.host + ":" +
                            std::to_string(router.port) + "/mcast";
          log_.warn("pruning unresponsive router ", url);
          process_.rc().remove(group_urn_, rcds::names::kGroupRouter, url,
                               [](Result<void>) {});
          routers_.erase(std::remove(routers_.begin(), routers_.end(), router),
                         routers_.end());
        },
        duration::seconds(2));
  }
}

Result<Bytes> MulticastGroup::on_join(const JoinRequest& join) {
  if (!router_) return Result<Bytes>(Errc::state_error, "not a router");
  router_state_.members[join.urn] =
      Member{join.address, process_.engine().now() + kMembershipTtl};
  return Bytes{};
}

void MulticastGroup::send(Bytes body) {
  McastPayload payload{group_urn_, process_.urn(), next_msg_id_++, std::move(body)};
  Bytes wire = encode(payload);
  ++stats_.sent;
  // "any message sent to that group is initially sent to more than half of
  // the routers for that group" (§5.4).
  std::size_t majority = routers_.size() / 2 + 1;
  std::size_t sent = 0;
  for (const auto& router : routers_) {
    if (sent >= majority) break;
    ++sent;
    if (router == process_.address()) {
      on_mcast(payload, wire, /*is_relay=*/false);
    } else {
      process_.rpc().notify(router, tags::kMcastSend, wire);
    }
  }
  if (routers_.empty()) log_.warn("no routers known for ", group_urn_);
}

void MulticastGroup::on_mcast(const McastPayload& msg, const Payload& wire, bool is_relay) {
  if (!router_) return;
  if (!router_state_.seen.insert(msg.dedup_key()).second) {
    ++stats_.duplicates_dropped;
    return;
  }
  // Deliver to every *live* member registered with this router.
  // Memberships are soft state: entries that were not refreshed within the
  // TTL belong to dead or departed members and are dropped rather than
  // accumulating undeliverable retransmission traffic.
  for (auto it = router_state_.members.begin(); it != router_state_.members.end();) {
    if (it->second.expires <= process_.engine().now()) {
      log_.debug("expiring membership of ", it->first);
      it = router_state_.members.erase(it);
      continue;
    }
    ++stats_.router_forwards;
    if (it->second.address == process_.address()) {
      on_deliver(msg);
    } else {
      process_.rpc().notify(it->second.address, tags::kMcastDeliver, wire);
    }
    ++it;
  }
  // ... and relay to the other routers so members registered elsewhere get
  // it too (their routers dedup).
  if (!is_relay) {
    for (const auto& router : routers_) {
      if (router == process_.address()) continue;
      ++stats_.router_relays;
      process_.rpc().notify(router, tags::kMcastRelay, wire);
    }
  }
}

void MulticastGroup::on_deliver(McastPayload msg) {
  if (!member_seen_.insert(msg.dedup_key()).second) {
    ++stats_.duplicates_dropped;
    return;
  }
  ++stats_.delivered;
  if (handler_) handler_(msg.origin, std::move(msg.body));
}

void MulticastGroup::leave() {
  left_ = true;
  process_.engine().cancel(refresh_timer_);
  refresh_timer_ = simnet::TimerId{};
  // Deregister membership from every router; a hosted router deregisters
  // its RC record so new joins stop finding it.
  if (router_) {
    process_.rc().remove(group_urn_, rcds::names::kGroupRouter, router_url(),
                         [](Result<void>) {});
  }
}

}  // namespace snipe::core
