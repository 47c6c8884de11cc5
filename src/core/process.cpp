#include "core/process.hpp"

#include <algorithm>

#include "core/group.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "util/uri.hpp"

namespace snipe::core {

SnipeProcess::SnipeProcess(simnet::Host& host, const std::string& name,
                           std::vector<simnet::Address> rc_replicas)
    : host_(&host),
      engine_(&host.engine()),
      urn_(starts_with(name, "urn:") ? name : process_urn(name)),
      rpc_(std::make_unique<transport::RpcEndpoint>(host, 0)),
      rc_(std::make_unique<rcds::RcClient>(*rpc_, std::move(rc_replicas))),
      log_("proc@" + urn_, host.clock()) {
  bind_handlers();
  register_in_rc();
}

SnipeProcess::~SnipeProcess() = default;

void SnipeProcess::bind_handlers() {
  rpc_->serve(tags::kDeliver,
              [this](const simnet::Address& from, const Payload& body) -> Result<Bytes> {
                auto msg = decode<UserMessage>(body);
                if (!msg) return msg.error();
                ++stats_.delivered_in;
                if (handler_)
                  handler_(msg.value().src_urn, msg.value().tag,
                           std::move(msg.value().body));
                (void)from;
                return Bytes{};
              });
  // Multicast dispatch: every verb names its group; route to the
  // registered MulticastGroup instance (see core/group.cpp).
  rpc_->serve(tags::kMcastJoin,
              [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
                auto join = decode<JoinRequest>(body);
                if (!join) return Error{Errc::corrupt, "bad join"};
                auto it = groups_.find(join.value().group);
                if (it == groups_.end())
                  return Result<Bytes>(Errc::not_found, "not a router for that group");
                return it->second->on_join(join.value());
              });
  auto on_mcast = [this](bool is_relay) {
    return [this, is_relay](const simnet::Address&, const Payload& body) {
      auto msg = decode<McastPayload>(body);
      if (!msg) return;
      auto it = groups_.find(msg.value().group);
      if (it != groups_.end()) it->second->on_mcast(msg.value(), body, is_relay);
    };
  };
  rpc_->on_notify(tags::kMcastSend, on_mcast(/*is_relay=*/false));
  rpc_->on_notify(tags::kMcastRelay, on_mcast(/*is_relay=*/true));
  rpc_->on_notify(tags::kMcastDeliver, [this](const simnet::Address&, const Payload& body) {
    auto msg = decode<McastPayload>(body);
    if (!msg) return;
    auto it = groups_.find(msg.value().group);
    if (it != groups_.end()) it->second->on_deliver(std::move(msg).take());
  });
  rpc_->on_notify(tags::kMigrated, [this](const simnet::Address&, const Payload& body) {
    // A process on whose notify list we appear has moved: refresh our
    // cached resolution immediately.
    auto notice = decode<MigrationNotice>(body);
    if (!notice) return;
    const MigrationNotice& n = notice.value();
    resolve_cache_[n.urn] = CachedAddress{n.address, engine_->now() + kResolveTtl};
    log_.debug("notified: ", n.urn, " moved to ", n.address.host);
  });
}

void SnipeProcess::register_in_rc() {
  rc_->apply(urn_,
             {rcds::op_set(rcds::names::kProcAddress,
                           "snipe://" + host_->name() + ":" +
                               std::to_string(rpc_->address().port) + "/proc"),
              rcds::op_set(rcds::names::kProcHost, host_->name()),
              rcds::op_set(rcds::names::kProcState, "running")},
             [this](Result<std::vector<rcds::Assertion>> r) {
               if (!r) log_.warn("RC registration failed: ", r.error().to_string());
             });
}

void SnipeProcess::resolve(const std::string& urn,
                           std::function<void(Result<simnet::Address>)> done) {
  auto it = resolve_cache_.find(urn);
  if (it != resolve_cache_.end() && it->second.expires > engine_->now()) {
    done(it->second.address);
    return;
  }
  rc_->lookup(urn, rcds::names::kProcAddress,
              [this, urn, done = std::move(done)](Result<std::vector<std::string>> r) {
                if (!r) {
                  done(r.error());
                  return;
                }
                if (r.value().empty()) {
                  done(Error{Errc::not_found, "no address registered for " + urn});
                  return;
                }
                const std::string& value = r.value().back();
                if (starts_with(value, "urn:")) {
                  // §5.7: a pseudo-process whose address is a group URN.
                  // Signalled to attempt_send via a distinguished error.
                  done(Error{Errc::state_error, "group:" + value});
                  return;
                }
                auto uri = parse_uri(value);
                if (!uri) {
                  done(uri.error());
                  return;
                }
                simnet::Address address{uri.value().host,
                                        static_cast<std::uint16_t>(uri.value().port)};
                resolve_cache_[urn] = CachedAddress{address, engine_->now() + kResolveTtl};
                done(address);
              });
}

void SnipeProcess::send(const std::string& dst_urn, std::uint32_t tag, Bytes body,
                        DoneHandler done) {
  ++stats_.sent;
  UserMessage msg{urn_, tag, std::move(body)};
  attempt_send(dst_urn, encode(msg), kDeliveryAttempts, std::move(done),
               /*resolve_fresh=*/false);
}

void SnipeProcess::attempt_send(const std::string& dst_urn, Bytes wire, int attempts_left,
                                DoneHandler done, bool resolve_fresh) {
  if (resolve_fresh) {
    invalidate_resolution(dst_urn);
    ++stats_.re_resolutions;
  }
  resolve(dst_urn, [this, dst_urn, wire = std::move(wire), attempts_left,
                    done = std::move(done)](Result<simnet::Address> addr) mutable {
    if (!addr) {
      if (addr.code() == Errc::state_error &&
          starts_with(addr.error().message, "group:")) {
        send_to_group(addr.error().message.substr(6), std::move(wire), std::move(done));
        return;
      }
      if (attempts_left > 1) {
        // The RC record may not exist *yet* (spawn racing registration);
        // retry after a beat.  The message waits in one heap block (a rare
        // path), so the timer's closure stays small enough to sit inline.
        struct Retry {
          std::string dst_urn;
          Bytes wire;
          DoneHandler done;
        };
        engine_->schedule(duration::milliseconds(200),
                          [this, attempts_left,
                           retry = std::make_unique<Retry>(
                               Retry{dst_urn, std::move(wire), std::move(done)})] {
                            attempt_send(retry->dst_urn, std::move(retry->wire),
                                         attempts_left - 1, std::move(retry->done), true);
                          });
        return;
      }
      ++stats_.send_failures;
      if (done) done(addr.error());
      return;
    }
    rpc_->call(
        addr.value(), tags::kDeliver, wire,
        [this, dst_urn, wire, attempts_left, done = std::move(done)](Result<Payload> r) mutable {
          if (r.ok()) {
            if (done) done(ok_result());
            return;
          }
          if (attempts_left > 1) {
            // No ack: the destination likely moved or died.  Re-resolve
            // through RC and retry (§5.6).
            attempt_send(dst_urn, std::move(wire), attempts_left - 1, std::move(done),
                         /*resolve_fresh=*/true);
            return;
          }
          ++stats_.send_failures;
          if (done) done(r.error());
        },
        kDeliveryTimeout);
  });
}

void SnipeProcess::send_to_group(const std::string& group_urn, Bytes wire,
                                 DoneHandler done) {
  rc_->lookup(group_urn, rcds::names::kGroupRouter,
              [this, group_urn, wire = std::move(wire),
               done = std::move(done)](Result<std::vector<std::string>> r) {
                if (!r) {
                  ++stats_.send_failures;
                  if (done) done(r.error());
                  return;
                }
                std::vector<simnet::Address> routers;
                for (const auto& url : r.value())
                  if (auto uri = parse_uri(url); uri.ok())
                    routers.push_back(simnet::Address{
                        uri.value().host, static_cast<std::uint16_t>(uri.value().port)});
                if (routers.empty()) {
                  ++stats_.send_failures;
                  if (done) done(Error{Errc::not_found, "no routers for " + group_urn});
                  return;
                }
                std::sort(routers.begin(), routers.end());
                // §5.4 again: push to more than half of the routers.
                Bytes payload = encode(McastPayload{group_urn, urn_, pseudo_seq_++, wire});
                std::size_t majority = routers.size() / 2 + 1;
                for (std::size_t i = 0; i < majority; ++i)
                  rpc_->notify(routers[i], tags::kMcastSend, payload);
                if (done) done(ok_result());
              });
}

void SnipeProcess::register_pseudo_process(const std::string& pseudo_urn,
                                           const std::string& group_urn, DoneHandler done) {
  // "SNIPE metadata can then be created for the new pseudo-process ...
  // with the multicast group listed as the communications URL" (§5.7).
  rc_->set(pseudo_urn, rcds::names::kProcAddress, group_urn,
           done ? std::move(done) : [](Result<void>) {});
}

void SnipeProcess::register_group(const std::string& group_urn, MulticastGroup* group) {
  groups_[group_urn] = group;
}

void SnipeProcess::unregister_group(const std::string& group_urn) {
  groups_.erase(group_urn);
}

void SnipeProcess::add_to_notify_list(const std::string& watcher_urn, DoneHandler done) {
  notify_list_.push_back(watcher_urn);
  rc_->add(urn_, rcds::names::kProcNotify, watcher_urn,
           done ? std::move(done) : [](Result<void>) {});
}

void SnipeProcess::spawn_via_rm(const simnet::Address& rm, daemon::SpawnRequest request,
                                SpawnHandler done) {
  rpc_->call(rm, rm::tags::kAllocate, encode(request),
             [done = std::move(done)](Result<Payload> r) {
               if (!r) {
                 done(r.error());
                 return;
               }
               done(decode<daemon::SpawnReply>(r.value()));
             });
}

void SnipeProcess::spawn_via_host(const std::string& host_name, daemon::SpawnRequest request,
                                  SpawnHandler done) {
  // §5.5: consult the host record; prefer a broker when one is listed.
  std::string uri = snipe::host_url(host_name, daemon::SnipeDaemon::kDefaultPort);
  rc_->get(uri, [this, host_name, request = std::move(request),
                 done = std::move(done)](Result<std::vector<rcds::Assertion>> r) mutable {
    simnet::Address target{host_name, daemon::SnipeDaemon::kDefaultPort};
    std::uint32_t tag = daemon::tags::kSpawn;
    if (r.ok()) {
      for (const auto& a : r.value()) {
        if (a.name == rcds::names::kHostBroker) {
          if (auto uri = parse_uri(a.value); uri.ok()) {
            target = {uri.value().host, static_cast<std::uint16_t>(uri.value().port)};
            tag = rm::tags::kAllocate;
            break;
          }
        }
      }
    }
    rpc_->call(target, tag, encode(request), [done = std::move(done)](Result<Payload> r2) {
      if (!r2) {
        done(r2.error());
        return;
      }
      done(decode<daemon::SpawnReply>(r2.value()));
    });
  });
}

void SnipeProcess::migrate_to(simnet::Host& new_host, DoneHandler done) {
  // 1. Stand up the new incarnation's endpoint on the destination host.
  auto new_rpc = std::make_unique<transport::RpcEndpoint>(new_host, 0);
  simnet::Address new_address = new_rpc->address();

  // 2. Swap internals: this object *becomes* the migrated process; the old
  //    endpoint survives as a relay bound to the old (host, port).
  auto old_rpc = std::move(rpc_);
  simnet::Address old_address = old_rpc->address();
  simnet::Host* old_host = host_;

  host_ = &new_host;
  rpc_ = std::move(new_rpc);
  rc_ = std::make_unique<rcds::RcClient>(*rpc_, rc_->replicas());
  resolve_cache_.clear();
  // The entire service surface moves: built-in handlers *and* anything the
  // application registered directly (HTTP servers, custom tags).  The
  // adopted lambdas capture `this`, which is exactly the object that just
  // moved hosts, so they keep working untouched.
  rpc_->adopt_handlers(*old_rpc);

  // 3. Old endpoint: a generic proxy for the grace period (§5.6 "The
  //    original process maybe required to act as a relay or redirect for a
  //    short period") — requests are forwarded to the new location and
  //    their responses returned; notifications are re-sent onward.
  auto* relay_rpc = old_rpc.get();
  relay_rpc->serve_default(
      [this, relay_rpc, new_address](const simnet::Address&, std::uint32_t tag,
                                     const Payload& body,
                                     transport::RpcEndpoint::Responder respond) {
        ++stats_.relayed;
        relay_rpc->call(new_address, tag, body,
                        [respond](Result<Payload> r) { respond(std::move(r)); });
      });
  relay_rpc->on_notify_default(
      [this, relay_rpc, new_address](const simnet::Address&, std::uint32_t tag,
                                     const Payload& body) {
        ++stats_.relayed;
        relay_rpc->notify(new_address, tag, body);
      });
  engine_->schedule_weak(kRelayGrace,
                         [old = std::shared_ptr<transport::RpcEndpoint>(std::move(old_rpc))]() {
                           // Dropping the endpoint unbinds the old port.
                         });

  log_.info("migrated ", urn_, " from ", old_host->name(), ":", old_address.port, " to ",
            new_host.name(), ":", new_address.port);
  host_->tracer().instant(engine_->now(), "core", "process.migrated",
                          {{"urn", urn_},
                           {"from", old_host->name()},
                           {"to", new_host.name()}});

  // 4. "After migration the process updates RC servers with its new
  //    location..."
  rc_->apply(urn_,
             {rcds::op_set(rcds::names::kProcAddress,
                           "snipe://" + new_host.name() + ":" +
                               std::to_string(new_address.port) + "/proc"),
              rcds::op_set(rcds::names::kProcHost, new_host.name())},
             [this, done = std::move(done), new_address](Result<std::vector<rcds::Assertion>> r) {
               if (!r) {
                 if (done) done(r.error());
                 return;
               }
               // 5. "...and also informs other SNIPE tasks on its notify
               //    list that it has moved."
               Bytes notice = encode(MigrationNotice{urn_, new_address});
               for (const auto& watcher : notify_list_) {
                 resolve(watcher, [this, notice](Result<simnet::Address> addr) {
                   if (addr) rpc_->notify(addr.value(), tags::kMigrated, notice);
                 });
               }
               if (done) done(ok_result());
             });
}

}  // namespace snipe::core
