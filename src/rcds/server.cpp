#include "rcds/server.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace snipe::rcds {

RcServer::RcServer(simnet::Host& host, std::uint16_t port, RcServerConfig config)
    : rpc_(host, port, transport::RpcConfig{config.shared_secret}),
      engine_(host.engine()),
      config_(std::move(config)),
      server_id_(host.name() + ":" + std::to_string(rpc_.address().port)),
      log_("rcds@" + server_id_, host.clock()) {
  rpc_.serve(tags::kGet,
             [this](const simnet::Address&, const Payload& body) { return handle_get(body); });
  rpc_.serve(tags::kApply,
             [this](const simnet::Address&, const Payload& body) { return handle_apply(body); });
  rpc_.on_notify(tags::kReplicate, [this](const simnet::Address&, const Payload& body) {
    handle_replicate(body);
  });
  rpc_.serve(tags::kSyncDigest, [this](const simnet::Address&, const Payload& body) {
    return handle_sync_digest(body);
  });
  rpc_.serve(tags::kPing, [](const simnet::Address&, const Payload&) -> Result<Payload> {
    return Payload{};
  });
  if (config_.anti_entropy_period > 0) {
    engine_.schedule_weak(config_.anti_entropy_period, [this] { anti_entropy_tick(); });
  }
  auto& registry = rpc_.host().metrics();
  replication_lag_ms_ = &registry.histogram("rcds.replication_lag_ms");
  catalog_hits_ = &registry.counter("rcds.catalog_hits");
  catalog_misses_ = &registry.counter("rcds.catalog_misses");
  stats_source_ = registry.add_stats([this](obs::StatsSink& s) {
    s.add("rcds.gets", stats_.gets);
    s.add("rcds.applies", stats_.applies);
    s.add("rcds.replicated_in", stats_.replicated_in);
    s.add("rcds.replicated_out", stats_.replicated_out);
    s.add("rcds.anti_entropy_rounds", stats_.anti_entropy_rounds);
    s.add("rcds.anti_entropy_repairs", stats_.anti_entropy_repairs);
    s.add("rcds.forwards", stats_.forwards);
  });
}

void RcServer::set_peers(std::vector<simnet::Address> peers) { peers_ = std::move(peers); }

std::vector<Assertion> RcServer::get(const std::string& uri) const {
  auto it = store_.find(uri);
  if (it == store_.end()) return {};
  return it->second.live();
}

std::vector<Assertion> RcServer::apply(const std::string& uri, const std::vector<Op>& ops) {
  // Automatic timestamping (§3.1): strictly monotone per server so that
  // (timestamp, origin) totally orders this server's writes.
  SimTime stamp = std::max(engine_.now(), last_stamp_ + 1);
  last_stamp_ = stamp;

  Record& record = store_[uri];
  std::vector<Assertion> written;
  for (const auto& op : ops) {
    if (op.kind == Op::Kind::set) {
      for (const auto& old_value : record.values(op.name)) {
        if (old_value == op.value) continue;
        Assertion tomb{op.name, old_value, stamp, server_id_, true};
        record.merge(tomb);
        written.push_back(std::move(tomb));
      }
      Assertion a{op.name, op.value, stamp, server_id_, false};
      record.merge(a);
      written.push_back(std::move(a));
    } else {
      Assertion a{op.name, op.value, stamp, server_id_, op.kind == Op::Kind::remove};
      record.merge(a);
      written.push_back(std::move(a));
    }
  }
  ++stats_.applies;
  rpc_.host().tracer().instant(
      engine_.now(), "rcds", "rcds.apply",
      {{"uri", uri}, {"assertions", std::to_string(written.size())}});
  if (!written.empty()) broadcast_update(uri, written);
  return written;
}

void RcServer::broadcast_update(const std::string& uri,
                                const std::vector<Assertion>& assertions) {
  if (peers_.empty()) return;
  Bytes update = encode(Update{uri, assertions});
  auto& tracer = rpc_.host().tracer();
  for (const auto& peer : peers_) {
    std::uint64_t flow = rpc_.notify(peer, tags::kReplicate, update);
    if (tracer.flow_enabled())
      tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rcds.replicate", flow,
                  {{"uri", uri},
                   {"peer", peer.to_string()},
                   {"assertions", std::to_string(assertions.size())}});
    ++stats_.replicated_out;
  }
}

Result<Bytes> RcServer::handle_get(const Payload& body) {
  auto uri = decode<std::string>(body);
  if (!uri) return uri.error();
  ++stats_.gets;
  auto it = store_.find(uri.value());
  if (it == store_.end())
    catalog_misses_->inc();
  else
    catalog_hits_->inc();
  std::vector<Assertion> live = it == store_.end() ? std::vector<Assertion>{} : it->second.live();
  return encode(Update{uri.value(), live});
}

Result<Bytes> RcServer::handle_apply(const Payload& body) {
  auto request = decode<ApplyRequest>(body);
  if (!request) return request.error();
  if (config_.single_master && !peers_.empty() && !(peers_.front() == rpc_.address())) {
    // LDAP-style referral mode: only peers().front() — the master — accepts
    // writes; every other replica refers the writer there.  For the
    // ablation bench only.
    ++stats_.forwards;
    // A synchronous forward is not possible in the event loop; reject with
    // state_error carrying the master's address — RcClient retries there.
    return Result<Bytes>(Errc::state_error,
                         "single-master: write at " + peers_.front().to_string());
  }
  const std::string& uri = request.value().uri;
  return encode(Update{uri, apply(uri, request.value().ops)});
}

void RcServer::handle_replicate(const Payload& body) {
  auto update = decode<Update>(body);
  if (!update) {
    log_.warn("malformed replicate payload");
    return;
  }
  // Inside srudp's delivery handler: link the merge into the carrying
  // message's flow so a `trace` of the write shows the replica fan-out land.
  auto& tracer = rpc_.host().tracer();
  if (tracer.flow_enabled() && rpc_.srudp().last_delivered_flow() != 0)
    tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rcds.replicate_rx",
                rpc_.srudp().last_delivered_flow(),
                {{"uri", update.value().uri},
                 {"assertions", std::to_string(update.value().assertions.size())}});
  Record& record = store_[update.value().uri];
  // Replication lag: virtual time from the originating server's stamp to
  // this replica merging the assertion.
  SimTime now = engine_.now();
  for (const auto& a : update.value().assertions) {
    record.merge(a);
    if (a.timestamp <= now)
      replication_lag_ms_->observe(static_cast<double>(now - a.timestamp) / 1e6);
  }
  ++stats_.replicated_in;
}

Result<Bytes> RcServer::handle_sync_digest(const Payload& body) {
  // Request: list of (uri, latest timestamp) the peer holds.  Response:
  // every assertion in any of our records that is newer than the peer's
  // digest for that URI, plus whole records the peer does not know, each
  // an encoded Update.
  auto digest = decode<std::vector<std::pair<std::string, SimTime>>>(body);
  if (!digest) return digest.error();
  std::map<std::string, SimTime> peer_digest;
  for (auto& [uri, ts] : digest.value()) peer_digest[std::move(uri)] = ts;

  std::vector<Bytes> updates;
  for (const auto& [uri, record] : store_) {
    auto it = peer_digest.find(uri);
    SimTime peer_latest = it == peer_digest.end() ? -1 : it->second;
    if (record.latest() <= peer_latest) continue;
    std::vector<Assertion> newer;
    for (const auto& a : record.all())
      if (a.timestamp > peer_latest) newer.push_back(a);
    if (newer.empty()) continue;
    updates.push_back(encode(Update{uri, std::move(newer)}));
  }
  return encode(updates);
}

void RcServer::anti_entropy_tick() {
  engine_.schedule_weak(config_.anti_entropy_period, [this] { anti_entropy_tick(); });
  if (!rpc_.host().up()) return;  // dead replicas sync on reboot instead
  if (peers_.empty()) return;
  ++stats_.anti_entropy_rounds;
  const simnet::Address peer = peers_[next_sync_peer_++ % peers_.size()];
  rpc_.host().flight().record(
      "rcds", "anti_entropy",
      "peer=" + peer.to_string() + " uris=" + std::to_string(store_.size()));

  std::vector<std::pair<std::string, SimTime>> digest;
  digest.reserve(store_.size());
  for (const auto& [uri, record] : store_) digest.emplace_back(uri, record.latest());
  std::uint64_t flow =
      rpc_.call(peer, tags::kSyncDigest, encode(digest), [this](Result<Payload> response) {
        if (!response) return;  // peer down; next round will try another
        auto updates = decode<std::vector<Payload>>(response.value());
        if (!updates) return;
        std::uint64_t repaired = 0;
        for (const Payload& wire : updates.value()) {
          auto update = decode<Update>(wire);
          if (!update) return;
          Record& record = store_[update.value().uri];
          for (const auto& a : update.value().assertions)
            if (record.merge(a)) ++stats_.anti_entropy_repairs, ++repaired;
        }
        auto& tracer = rpc_.host().tracer();
        if (repaired > 0 && tracer.flow_enabled() &&
            rpc_.srudp().last_delivered_flow() != 0)
          tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                      "rcds.anti_entropy_repair", rpc_.srudp().last_delivered_flow(),
                      {{"assertions", std::to_string(repaired)}});
      });
  auto& tracer = rpc_.host().tracer();
  if (tracer.flow_enabled())
    tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "rcds.anti_entropy", flow,
                {{"peer", peer.to_string()}, {"uris", std::to_string(store_.size())}});
}

}  // namespace snipe::rcds
