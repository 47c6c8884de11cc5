#include "rm/resource_manager.hpp"

#include <limits>

#include "obs/trace.hpp"
#include "util/uri.hpp"

namespace snipe::rm {

Bytes user_grant_payload(const std::string& user, const std::string& program,
                         const std::string& requesting_host) {
  return encode(std::string("snipe:user-grant"), user, program, requesting_host);
}

Bytes host_attest_payload(const std::string& host, const std::string& program) {
  return encode(std::string("snipe:host-attestation"), host, program);
}

ResourceManager::ResourceManager(simnet::Host& host, std::vector<simnet::Address> rc_replicas,
                                 crypto::Principal principal, std::uint16_t port,
                                 RmConfig config)
    : rpc_(host, port, {}),
      engine_(host.engine()),
      config_(std::move(config)),
      principal_(std::move(principal)),
      rc_(rpc_, std::move(rc_replicas)),
      log_("rm@" + host.name(), host.clock()) {
  rpc_.serve_async(tags::kAllocate,
                   [this](const simnet::Address& from, const Payload& body,
                          transport::RpcEndpoint::Responder respond) {
                     queue_decision([this, from, body, respond = std::move(respond)] {
                       handle_allocate(from, body, std::move(respond));
                     });
                   });
  rpc_.serve_async(tags::kReserve,
                   [this](const simnet::Address&, const Payload& body,
                          transport::RpcEndpoint::Responder respond) {
                     queue_decision([this, body, respond = std::move(respond)] {
                       respond(handle_reserve(body));
                     });
                   });
  rpc_.serve(tags::kAuthorize, [this](const simnet::Address&, const Payload& body) {
    return handle_authorize(body);
  });
  rpc_.serve(tags::kPing,
             [](const simnet::Address&, const Payload&) -> Result<Bytes> { return Bytes{}; });
  // Raw port for health pongs from the daemons we manage.
  ping_port_ = host.ephemeral_port();
  host.bind(ping_port_, [this](const simnet::Packet& p) {
        auto report = decode<daemon::LoadReport>(p.payload);
        if (!report) return;
        for (auto& [name, info] : hosts_) {
          if (info.ping.host == p.src->name() && info.ping.port == p.src_port) {
            info.load = report.value().load;
            info.pong_seen = true;
            info.missed_polls = 0;
            info.alive = true;
            return;
          }
        }
      })
      .value();
  engine_.schedule_weak(kMonitorPeriod, [this] { poll_hosts(); });
  auto& registry = rpc_.host().metrics();
  spawn_latency_ms_ = &registry.histogram("rm.spawn_latency_ms");
  stats_source_ = registry.add_stats([this](obs::StatsSink& s) {
    s.add("rm.allocations", stats_.allocations);
    s.add("rm.reservations", stats_.reservations);
    s.add("rm.allocation_failures", stats_.allocation_failures);
    s.add("rm.authorizations_issued", stats_.authorizations_issued);
    s.add("rm.authorizations_rejected", stats_.authorizations_rejected);
    s.add("rm.sealed_spawns", stats_.sealed_spawns);
    s.add("rm.polls", stats_.polls);
  });
}

std::string ResourceManager::url() const {
  return "snipe://" + rpc_.address().host + ":" + std::to_string(rpc_.address().port) + "/rm";
}

void ResourceManager::manage_host(const std::string& host_name,
                                  const simnet::Address& daemon) {
  HostInfo info;
  info.daemon = daemon;
  info.ping = simnet::Address{
      daemon.host,
      static_cast<std::uint16_t>(daemon.port + daemon::SnipeDaemon::kPingPortOffset)};
  hosts_[host_name] = info;
  // Register as a broker in the host metadata (§5.2.1) and pull host facts.
  std::string uri = snipe::host_url(host_name, daemon.port);
  rc_.add(uri, rcds::names::kHostBroker, url(), [](Result<void>) {});
  rc_.get(uri, [this, host_name](Result<std::vector<rcds::Assertion>> r) {
    if (!r) return;
    auto it = hosts_.find(host_name);
    if (it == hosts_.end()) return;
    for (const auto& a : r.value()) {
      if (a.name == rcds::names::kHostArch) it->second.arch = a.value;
      if (a.name == rcds::names::kHostCpus) it->second.cpus = std::stoi(a.value);
    }
  });
}

void ResourceManager::queue_decision(std::function<void()> work) {
  // One decision at a time: requests queue behind the RM's CPU, which is
  // what makes a single centralized RM the §2.2 bottleneck.
  SimTime start = std::max(engine_.now(), busy_until_);
  busy_until_ = start + kDecisionTime;
  engine_.schedule_at(busy_until_, std::move(work));
}

void ResourceManager::poll_hosts() {
  engine_.schedule_weak(kMonitorPeriod, [this] { poll_hosts(); });
  if (!rpc_.host().up()) return;
  simnet::Host* host = rpc_.host().world()->host(rpc_.address().host);
  for (auto& [name, info] : hosts_) {
    ++stats_.polls;
    // Score the previous round first.
    if (!info.pong_seen && ++info.missed_polls >= kDeadAfterMisses) {
      if (info.alive) {
        rpc_.host().tracer().instant(engine_.now(), "rm", "rm.host_dead", {{"host", name}});
        rpc_.host().flight().record(
            "rm", "host_dead",
            "host=" + name + " misses=" + std::to_string(info.missed_polls));
      }
      info.alive = false;
    }
    info.pong_seen = false;
    simnet::SendOptions opts;
    opts.src_port = ping_port_;
    auto r = host->send(info.ping, Bytes{0x1}, opts);
    if (!r) log_.trace("probe to ", name, " failed: ", r.error().to_string());
  }
}

std::size_t ResourceManager::live_hosts() const {
  std::size_t n = 0;
  for (const auto& [name, info] : hosts_)
    if (info.alive) ++n;
  return n;
}

Result<std::string> ResourceManager::select_host(const daemon::SpawnRequest& request) const {
  // "allocating resources as needed from those available, attempting to
  // adhere to resource allocation goals" (§3.5): least-loaded live host
  // that satisfies the environment spec.
  const HostInfo* best = nullptr;
  const std::string* best_name = nullptr;
  for (const auto& [name, info] : hosts_) {
    if (!info.alive) continue;
    if (!request.require_arch.empty() && !info.arch.empty() &&
        info.arch != request.require_arch)
      continue;
    if (request.require_cpus > info.cpus) continue;
    if (best == nullptr || info.load < best->load) {
      best = &info;
      best_name = &name;
    }
  }
  if (best == nullptr)
    return Result<std::string>(Errc::unreachable, "no live host satisfies the request");
  return *best_name;
}

Bytes ResourceManager::sign_authorization(const std::string& program,
                                          const std::string& host) const {
  auto stmt = crypto::SignedStatement::make(
      principal_, daemon::authorization_payload(program, host));
  return encode(stmt);
}

void ResourceManager::establish_session(const std::string& host_name,
                                        std::function<void(Result<void>)> done) {
  auto it = hosts_.find(host_name);
  if (it == hosts_.end()) {
    done(Error{Errc::not_found, host_name + " is not managed here"});
    return;
  }
  const simnet::Address daemon = it->second.daemon;
  // The daemon's public key lives in its host metadata (§5.2.1).
  std::string uri = snipe::host_url(host_name, daemon.port);
  rc_.lookup(uri, rcds::names::kHostKey,
             [this, host_name, daemon, done = std::move(done)](
                 Result<std::vector<std::string>> r) {
               if (!r) {
                 done(r.error());
                 return;
               }
               if (r.value().empty()) {
                 done(Error{Errc::not_found, "no host key registered for " + host_name});
                 return;
               }
               auto key_bytes = hex_decode(r.value().front());
               if (!key_bytes) {
                 done(key_bytes.error());
                 return;
               }
               auto key = decode<crypto::PublicKey>(key_bytes.value());
               if (!key) {
                 done(key.error());
                 return;
               }
               auto initiated = crypto::Session::initiate(key.value(), session_rng_);
               if (!initiated) {
                 done(initiated.error());
                 return;
               }
               auto session =
                   std::make_shared<crypto::Session>(std::move(initiated.value().first));
               // The hello is signed so the daemon knows it is *us* (a raw
               // encrypted key could come from anyone).
               auto hello = crypto::SignedStatement::make(
                   principal_, std::move(initiated.value().second));
               rpc_.call(daemon, daemon::tags::kSessionHello, encode(hello),
                         [this, host_name, session, done = std::move(done)](Result<Payload> r2) {
                           if (!r2) {
                             done(r2.error());
                             return;
                           }
                           auto it = hosts_.find(host_name);
                           if (it != hosts_.end()) it->second.session = session;
                           done(ok_result());
                         });
             });
}

void ResourceManager::handle_allocate(const simnet::Address& from, const Payload& body,
                                      transport::RpcEndpoint::Responder respond) {
  auto request = decode<daemon::SpawnRequest>(body);
  if (!request) {
    respond(request.error());
    return;
  }
  auto host = select_host(request.value());
  if (!host) {
    ++stats_.allocation_failures;
    respond(host.error());
    return;
  }
  HostInfo& info = hosts_[host.value()];
  // Active mode: proxy the spawn (§3.5 "the resource manager acts as a
  // proxy for the requester").  Over an established §4 session the request
  // goes sealed and unsigned; otherwise it carries our RSA authorization.
  daemon::SpawnRequest forwarded = request.value();
  ++stats_.allocations;
  info.load += 1.0 / std::max(1, info.cpus);  // optimistic until next poll
  // Spawn latency span: decision made -> daemon's reply in hand.
  SimTime spawn_start = engine_.now();
  obs::SpanId span = rpc_.host().tracer().begin_span(spawn_start, "rm", "rm.spawn");
  rpc_.host().flight().record("rm", "spawn",
                              "target=" + host.value() + " program=" + forwarded.program);
  auto completion = [respond, this, span, spawn_start,
                     target = host.value()](Result<Payload> r) {
    spawn_latency_ms_->observe(static_cast<double>(engine_.now() - spawn_start) / 1e6);
    rpc_.host().tracer().end_span(engine_.now(), span,
                                  {{"host", target}, {"ok", r.ok() ? "true" : "false"}});
    if (!r) {
      ++stats_.allocation_failures;
      respond(r.error());
      return;
    }
    respond(r.value());
  };
  if (info.session != nullptr) {
    ++stats_.sealed_spawns;
    rpc_.call(info.daemon, daemon::tags::kSpawnSealed,
              info.session->seal(encode(forwarded)), completion);
  } else {
    forwarded.authorization = sign_authorization(forwarded.program, host.value());
    rpc_.call(info.daemon, daemon::tags::kSpawn, encode(forwarded), completion);
  }
  (void)from;
}

Result<Bytes> ResourceManager::handle_reserve(const Payload& body) {
  auto request = decode<daemon::SpawnRequest>(body);
  if (!request) return request.error();
  auto host = select_host(request.value());
  if (!host) {
    ++stats_.allocation_failures;
    return host.error();
  }
  // Passive mode (§3.5): reserve and let the requester do the spawn.
  HostInfo& info = hosts_[host.value()];
  info.load += 1.0 / std::max(1, info.cpus);
  ++stats_.reservations;
  Reservation res{host.value(), info.daemon,
                  sign_authorization(request.value().program, host.value())};
  return encode(res);
}

Result<Bytes> ResourceManager::handle_authorize(const Payload& body) {
  auto request = decode<AuthorizeRequest>(body);
  if (!request) return request.error();
  const AuthorizeRequest& req = request.value();

  // §4: "One is a signed statement from the user, granting a particular
  // process on a particular host, access to the desired resources."
  auto user_ok = config_.trust.validate_statement(req.user_grant, req.user_cert,
                                                  crypto::TrustPurpose::identify_user);
  if (!user_ok) {
    ++stats_.authorizations_rejected;
    return Result<Bytes>(user_ok.error().code, "user grant: " + user_ok.error().message);
  }
  if (req.user_grant.payload !=
      user_grant_payload(req.user_cert.subject, req.program, req.host_cert.subject)) {
    ++stats_.authorizations_rejected;
    return Result<Bytes>(Errc::permission_denied, "user grant does not cover this request");
  }
  // "The second is a signed statement from the requesting host indicating
  // that the resources are requested by that process."
  auto host_ok = config_.trust.validate_statement(req.host_attest, req.host_cert,
                                                  crypto::TrustPurpose::identify_host);
  if (!host_ok) {
    ++stats_.authorizations_rejected;
    return Result<Bytes>(host_ok.error().code, "host attestation: " + host_ok.error().message);
  }
  if (req.host_attest.payload != host_attest_payload(req.host_cert.subject, req.program)) {
    ++stats_.authorizations_rejected;
    return Result<Bytes>(Errc::permission_denied, "host attestation does not match");
  }
  // "the resource manager then issues its own signed statement authorizing
  // use of the requested resources by that process".
  ++stats_.authorizations_issued;
  return sign_authorization(req.program, req.target_host);
}

}  // namespace snipe::rm
