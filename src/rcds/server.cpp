#include "rcds/server.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace snipe::rcds {

Bytes encode_update(const std::string& uri, const std::vector<Assertion>& assertions) {
  ByteWriter w;
  w.str(uri);
  w.u32(static_cast<std::uint32_t>(assertions.size()));
  for (const auto& a : assertions) a.encode(w);
  return std::move(w).take();
}

Result<std::pair<std::string, std::vector<Assertion>>> decode_update(const Bytes& body) {
  ByteReader r(body);
  auto uri = r.str();
  if (!uri) return uri.error();
  auto count = r.u32();
  if (!count) return count.error();
  std::vector<Assertion> assertions;
  assertions.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto a = Assertion::decode(r);
    if (!a) return a.error();
    assertions.push_back(std::move(a).take());
  }
  return std::make_pair(uri.value(), std::move(assertions));
}

RcServer::RcServer(simnet::Host& host, std::uint16_t port, RcServerConfig config)
    : rpc_(host, port, transport::RpcConfig{config.shared_secret}),
      engine_(host.engine()),
      config_(std::move(config)),
      server_id_(host.name() + ":" + std::to_string(rpc_.address().port)),
      log_("rcds@" + server_id_, host.clock()) {
  // Record and op decoders read contiguous bytes: bodies other than kGet's
  // are flattened here, at the handler edge.
  rpc_.serve(tags::kGet,
             [this](const simnet::Address&, const Payload& body) { return handle_get(body); });
  rpc_.serve(tags::kApply, [this](const simnet::Address& from, const Payload& body) {
    return handle_apply(from, body.to_bytes());
  });
  rpc_.on_notify(tags::kReplicate, [this](const simnet::Address&, const Payload& body) {
    handle_replicate(body.to_bytes());
  });
  rpc_.serve(tags::kSyncDigest, [this](const simnet::Address&, const Payload& body) {
    return handle_sync_digest(body.to_bytes());
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
  Bytes update = encode_update(uri, assertions);
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
  PayloadCursor r(body);
  auto uri = r.str();
  if (!uri) return uri.error();
  ++stats_.gets;
  auto it = store_.find(uri.value());
  if (it == store_.end())
    catalog_misses_->inc();
  else
    catalog_hits_->inc();
  std::vector<Assertion> live = it == store_.end() ? std::vector<Assertion>{} : it->second.live();
  return encode_update(uri.value(), live);
}

Result<Bytes> RcServer::handle_apply(const simnet::Address& from, const Bytes& body) {
  ByteReader r(body);
  auto uri = r.str();
  if (!uri) return uri.error();
  auto count = r.u32();
  if (!count) return count.error();
  std::vector<Op> ops;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto op = Op::decode(r);
    if (!op) return op.error();
    ops.push_back(std::move(op).take());
  }
  (void)from;
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
  auto written = apply(uri.value(), ops);
  return encode_update(uri.value(), written);
}

void RcServer::handle_replicate(const Bytes& body) {
  auto update = decode_update(body);
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
                {{"uri", update.value().first},
                 {"assertions", std::to_string(update.value().second.size())}});
  Record& record = store_[update.value().first];
  // Replication lag: virtual time from the originating server's stamp to
  // this replica merging the assertion.
  SimTime now = engine_.now();
  for (const auto& a : update.value().second) {
    record.merge(a);
    if (a.timestamp <= now)
      replication_lag_ms_->observe(static_cast<double>(now - a.timestamp) / 1e6);
  }
  ++stats_.replicated_in;
}

Result<Bytes> RcServer::handle_sync_digest(const Bytes& body) {
  // Request: list of (uri, latest timestamp) the peer holds.  Response:
  // every assertion in any of our records that is newer than the peer's
  // digest for that URI, plus whole records the peer does not know.
  ByteReader r(body);
  auto count = r.u32();
  if (!count) return count.error();
  std::map<std::string, SimTime> peer_digest;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto uri = r.str();
    if (!uri) return uri.error();
    auto ts = r.i64();
    if (!ts) return ts.error();
    peer_digest[uri.value()] = ts.value();
  }

  ByteWriter w;
  std::uint32_t records = 0;
  ByteWriter payload;
  for (const auto& [uri, record] : store_) {
    auto it = peer_digest.find(uri);
    SimTime peer_latest = it == peer_digest.end() ? -1 : it->second;
    if (record.latest() <= peer_latest) continue;
    std::vector<Assertion> newer;
    for (const auto& a : record.all())
      if (a.timestamp > peer_latest) newer.push_back(a);
    if (newer.empty()) continue;
    Bytes update = encode_update(uri, newer);
    payload.blob(update);
    ++records;
  }
  w.u32(records);
  w.raw(payload.bytes());
  return std::move(w).take();
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

  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(store_.size()));
  for (const auto& [uri, record] : store_) {
    w.str(uri);
    w.i64(record.latest());
  }
  std::uint64_t flow =
      rpc_.call(peer, tags::kSyncDigest, std::move(w).take(), [this](Result<Payload> response) {
        if (!response) return;  // peer down; next round will try another
        PayloadCursor r(response.value());
        auto count = r.u32();
        if (!count) return;
        std::uint64_t repaired = 0;
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto blob = r.blob();
          if (!blob) return;
          auto update = decode_update(blob.value().to_bytes());
          if (!update) return;
          Record& record = store_[update.value().first];
          for (const auto& a : update.value().second)
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
