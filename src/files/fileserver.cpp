#include "files/fileserver.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"
#include "util/uri.hpp"

namespace snipe::files {

namespace {
/// Concatenates offset-keyed chunks whose ranges cover [0, end) without a
/// gap, skipping bytes an earlier chunk already supplied.  Adjacent slices
/// of one buffer coalesce, so a clean transfer of a stored file yields that
/// file's buffer as a single segment.
Payload assemble(const std::map<std::uint64_t, Payload>& chunks) {
  Payload out;
  for (const auto& [offset, chunk] : chunks) {
    const std::uint64_t have = out.size();
    if (offset > have) break;  // a gap: unreachable once coverage is complete
    if (offset + chunk.size() <= have) continue;
    const std::size_t skip = static_cast<std::size_t>(have - offset);
    out.append(skip == 0 ? chunk : chunk.slice(skip, chunk.size() - skip));
  }
  return out;
}

/// Merges [offset, end) into the coverage map and returns the number of
/// *newly* covered bytes (overlap with existing extents counts zero, so a
/// re-sent chunk is idempotent).
std::uint64_t add_extent(std::map<std::uint64_t, std::uint64_t>& extents,
                         std::uint64_t offset, std::uint64_t end) {
  if (end <= offset) return 0;
  std::uint64_t fresh = end - offset;
  // Absorb every extent that overlaps or abuts [offset, end).
  auto it = extents.upper_bound(offset);
  if (it != extents.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= offset) it = prev;
  }
  while (it != extents.end() && it->first <= end) {
    std::uint64_t lo = std::min(offset, it->first);
    std::uint64_t hi = std::max(end, it->second);
    fresh -= std::min(end, it->second) - std::max(offset, it->first);
    offset = lo;
    end = hi;
    it = extents.erase(it);
  }
  extents[offset] = end;
  return fresh;
}
}  // namespace

FileServer::FileServer(simnet::Host& host, std::vector<simnet::Address> rc_replicas,
                       std::uint16_t port, FileServerConfig config)
    : rpc_(host, port, {}),
      engine_(host.engine()),
      config_(config),
      rc_(rpc_, std::move(rc_replicas)),
      log_("files@" + host.name() + ":" + std::to_string(rpc_.address().port), host.clock()) {
  rpc_.serve(tags::kOpenSink,
             [this](const simnet::Address&, const Payload& body) -> Result<Payload> {
               auto open = decode<OpenSink>(body);
               if (!open) return Error{Errc::corrupt, "bad open-sink request"};
               std::uint64_t id = next_sink_id_++;
               Sink sink;
               sink.lifn = std::move(open.value().lifn);
               sink.total = open.value().total;
               sink.stripes = std::max<std::uint32_t>(1, open.value().stripes);
               sink.last_activity = engine_.now();
               sinks_[id] = std::move(sink);
               ++stats_.sink_sessions;
               return encode_payload(id);
             });

  rpc_.on_notify(tags::kSinkData, [this](const simnet::Address&, const Payload& body) {
    auto data = decode<SinkChunk>(body);
    if (!data) return;
    SinkChunk& c = data.value();
    auto it = sinks_.find(c.sink_id);
    if (it == sinks_.end()) return;
    Sink& sink = it->second;
    std::uint64_t end = c.offset + c.chunk.size();
    if (end > sink.total) {
      log_.warn("sink ", c.sink_id, ": chunk [", c.offset, ", ", end,
                ") exceeds declared size ", sink.total);
      return;
    }
    // Still inside srudp's delivery handler: link the chunk ingest into the
    // carrying message's flow so `trace <id>` shows where the bytes landed.
    auto& tracer = rpc_.host().tracer();
    if (tracer.flow_enabled() && rpc_.srudp().last_delivered_flow() != 0)
      tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow", "files.sink_chunk_rx",
                  rpc_.srudp().last_delivered_flow(),
                  {{"lifn", sink.lifn},
                   {"offset", std::to_string(c.offset)},
                   {"bytes", std::to_string(c.chunk.size())}});
    if (std::uint64_t fresh = add_extent(sink.extents, c.offset, end); fresh > 0) {
      sink.covered += fresh;
      Payload& kept = sink.chunks[c.offset];
      if (c.chunk.size() > kept.size()) kept = std::move(c.chunk);
    }
    sink.last_activity = engine_.now();
  });

  rpc_.serve(tags::kCloseSink,
             [this](const simnet::Address&, const Payload& body) -> Result<Payload> {
               auto id = decode<std::uint64_t>(body);
               if (!id) return id.error();
               auto it = sinks_.find(id.value());
               if (it == sinks_.end())
                 return Result<Payload>(Errc::not_found, "no such sink");
               Sink& sink = it->second;
               if (sink.covered != sink.total) {
                 ++stats_.sinks_incomplete;
                 std::string detail = "incomplete sink " + sink.lifn + ": " +
                                      std::to_string(sink.covered) + "/" +
                                      std::to_string(sink.total) + " bytes";
                 sinks_.erase(it);
                 return Result<Payload>(Errc::state_error, std::move(detail));
               }
               store_local(sink.lifn, assemble(sink.chunks));
               sinks_.erase(it);
               return Payload{};
             });

  rpc_.serve(tags::kOpenSource,
             [this](const simnet::Address&, const Payload& body) -> Result<Payload> {
               auto open = decode<OpenSource>(body);
               if (!open) return Error{Errc::corrupt, "bad open-source request"};
               const OpenSource& req = open.value();
               const std::uint32_t stripes = std::max<std::uint32_t>(1, req.stripe_count);
               if (req.stripe_index >= stripes)
                 return Error{Errc::invalid_argument, "stripe index out of range"};
               auto it = store_.find(req.lifn);
               if (it == store_.end()) return Result<Payload>(Errc::not_found, req.lifn);
               ++stats_.source_sessions;
               // Stream this stripe's chunks — indices congruent to the
               // stripe modulo the stripe count — as offset-stamped one-way
               // SNIPE messages, each carrying a slice of the stored buffer.
               const Payload::Buffer& content = it->second.bytes;
               const std::uint64_t total = content->size();
               const std::uint64_t chunk = req.chunk_size != 0 ? req.chunk_size : config_.chunk;
               std::uint64_t stripe_bytes = 0;
               auto& tracer = rpc_.host().tracer();
               for (std::uint64_t ci = req.stripe_index; ci * chunk < total; ci += stripes) {
                 std::uint64_t offset = ci * chunk;
                 std::uint64_t n = std::min<std::uint64_t>(chunk, total - offset);
                 std::uint64_t flow = rpc_.notify(
                     req.dst, tags::kSourceData,
                     encode_payload(SourceChunk{req.read_id, total, offset,
                                                Payload(content, offset, n)}));
                 if (tracer.flow_enabled())
                   tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                               "files.source_chunk", flow,
                               {{"lifn", req.lifn},
                                {"stripe", std::to_string(req.stripe_index)},
                                {"offset", std::to_string(offset)},
                                {"bytes", std::to_string(n)}});
                 stripe_bytes += n;
               }
               bytes_served_->inc(stripe_bytes);
               return encode_payload(total, stripe_bytes);
             });

  rpc_.serve(tags::kReplicate,
             [this](const simnet::Address&, const Payload& body) -> Result<Payload> {
               auto push = decode<ReplicaPush>(body);
               if (!push) return push.error();
               const std::string& lifn = push.value().lifn;
               const Payload& content = push.value().content;
               ++stats_.replicas_received;
               // A push whose provenance proves the pusher's seal (its
               // sealed buffer, perhaps with a short tail the transport
               // copied) keeps that seal; otherwise hash only bytes this
               // server does not already hold (a repair push repeats them, a
               // push after an overwrite replaces them).
               Stored& file = store_[lifn];
               if (file.bytes == nullptr || content.proven_digest() != nullptr ||
                   !(content == *file.bytes))
                 put(file, crypto::seal(content));
               // (Re-)announce unconditionally: a repair push may follow a
               // crash that retracted our registration while the bytes
               // survived on disk.
               announce(lifn, file);
               return Payload{};
             });

  if (config_.repair_period > 0)
    engine_.schedule_weak(config_.repair_period, [this] { repair_tick(); });
  engine_.schedule_weak(kSinkTtl / 2, [this] { sink_sweep(); });

  rpc_.serve(tags::kDelete,
             [this](const simnet::Address&, const Payload& body) -> Result<Payload> {
               auto lifn = decode<std::string>(body);
               if (!lifn) return lifn.error();
               auto it = store_.find(lifn.value());
               if (it == store_.end()) return Result<Payload>(Errc::not_found, lifn.value());
               set_bytes_stored(stats_.bytes_stored - it->second.bytes->size());
               store_.erase(it);
               rc_.remove(lifn.value(), rcds::names::kLifnLocation, location_url(),
                          [](Result<void>) {});
               return Payload{};
             });

  obs::MetricsRegistry& registry = rpc_.host().metrics();
  bytes_served_ = &registry.counter("files.bytes_served");
  bytes_stored_ = &registry.gauge("files.bytes_stored");
  stats_source_ = registry.add_stats([this](obs::StatsSink& s) {
    s.add("files.stores", stats_.stores);
    s.add("files.sink_sessions", stats_.sink_sessions);
    s.add("files.source_sessions", stats_.source_sessions);
    s.add("files.replicas_pushed", stats_.replicas_pushed);
    s.add("files.replicas_received", stats_.replicas_received);
    s.add("files.repairs", stats_.repairs);
    s.add("files.sinks_expired", stats_.sinks_expired);
    s.add("files.sinks_incomplete", stats_.sinks_incomplete);
  });
}

std::string FileServer::location_url() const {
  return "snipe://" + address().host + ":" + std::to_string(address().port) + "/files";
}

Result<Bytes> FileServer::read(const std::string& lifn) const {
  auto it = store_.find(lifn);
  if (it == store_.end()) return Result<Bytes>(Errc::not_found, lifn);
  return *it->second.bytes;
}

void FileServer::store_local(const std::string& lifn, const Payload& content,
                             bool announce_it) {
  ++stats_.stores;
  Stored& file = store_[lifn];
  put(file, crypto::seal(content));
  if (announce_it) {
    announce(lifn, file);
    replicate(lifn);
  }
}

FileServer::~FileServer() { set_bytes_stored(0); }

void FileServer::put(Stored& file, Payload::Buffer bytes) {
  set_bytes_stored(stats_.bytes_stored - (file.bytes == nullptr ? 0 : file.bytes->size()) +
                   bytes->size());
  file.bytes = std::move(bytes);
  file.sha256 = crypto::digest_hex(*Payload::sealed_digest(file.bytes));
}

void FileServer::set_bytes_stored(std::uint64_t bytes) {
  bytes_stored_->add(static_cast<double>(bytes) - static_cast<double>(stats_.bytes_stored));
  stats_.bytes_stored = bytes;
}

void FileServer::announce(const std::string& lifn, const Stored& file) {
  rc_.apply(lifn,
            {rcds::op_add(rcds::names::kLifnLocation, location_url()),
             rcds::op_set(rcds::names::kLifnHash, file.sha256)},
            [this, lifn](Result<std::vector<rcds::Assertion>> r) {
              if (!r) log_.warn("failed to announce ", lifn, ": ", r.error().to_string());
            });
}

void FileServer::sink_sweep() {
  engine_.schedule_weak(kSinkTtl / 2, [this] { sink_sweep(); });
  SimTime now = engine_.now();
  for (auto it = sinks_.begin(); it != sinks_.end();) {
    Sink& sink = it->second;
    if (now - sink.last_activity < kSinkTtl) {
      ++it;
      continue;
    }
    ++stats_.sinks_expired;
    rpc_.host().flight().record(
        "files", "sink_expired",
        "lifn=" + sink.lifn + " id=" + std::to_string(it->first) + " covered=" +
            std::to_string(sink.covered) + "/" + std::to_string(sink.total));
    log_.debug("expiring idle sink ", it->first, " (", sink.lifn, ")");
    it = sinks_.erase(it);
  }
}

void FileServer::repair_tick() {
  engine_.schedule_weak(config_.repair_period, [this] { repair_tick(); });
  if (!rpc_.host().up()) return;
  if (config_.replication_factor <= 1 || peers_.empty()) return;
  for (const auto& [lifn, content] : store_) repair_file(lifn);
}

void FileServer::repair_file(const std::string& lifn) {
  // Count *live* registered replicas; push fresh copies if below target.
  // Liveness here reads simulator state directly — a stand-in for the
  // health probe a production replication daemon would send; the protocol
  // consequences (retraction + re-push) are what matter.
  rc_.lookup(lifn, rcds::names::kLifnLocation,
             [this, lifn](Result<std::vector<std::string>> r) {
               if (!r) return;
               int live = 0;
               std::set<std::string> live_urls;
               simnet::World* world = rpc_.host().world();
               for (const auto& url : r.value()) {
                 auto uri = snipe::parse_uri(url);
                 if (!uri) continue;
                 simnet::Host* h = world->host(uri.value().host);
                 if (h != nullptr && h->up()) {
                   ++live;
                   live_urls.insert(url);
                 } else {
                   // Retract the dead replica's registration so readers
                   // stop trying it ("deleting replicas ... according to
                   // local policy", §3.2).
                   rc_.remove(lifn, rcds::names::kLifnLocation, url, [](Result<void>) {});
                 }
               }
               if (live >= config_.replication_factor) return;
               auto it = store_.find(lifn);
               if (it == store_.end()) return;
               log_.debug("repairing ", lifn, ": ", live, "/",
                          config_.replication_factor, " live replicas");
               Payload body = encode_payload(ReplicaPush{lifn, Payload(it->second.bytes)});
               int needed = config_.replication_factor - live;
               for (const auto& peer : peers_) {
                 if (needed <= 0) break;
                 // A peer that is already a live registered replica gains
                 // nothing from another copy — pushing to it every tick is
                 // repair churn with no replica-count progress.
                 std::string peer_url = "snipe://" + peer.host + ":" +
                                        std::to_string(peer.port) + "/files";
                 if (live_urls.count(peer_url)) continue;
                 simnet::Host* peer_host = world->host(peer.host);
                 if (peer_host == nullptr || !peer_host->up()) continue;
                 ++stats_.repairs;
                 --needed;
                 std::uint64_t flow =
                     rpc_.call(peer, tags::kReplicate, body, [](Result<Payload>) {});
                 auto& tracer = rpc_.host().tracer();
                 if (tracer.flow_enabled())
                   tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                               "files.repair_push", flow,
                               {{"lifn", lifn}, {"peer", peer.to_string()}});
               }
             });
}

void FileServer::replicate(const std::string& lifn) {
  int copies_needed = config_.replication_factor - 1;
  if (copies_needed <= 0 || peers_.empty()) return;
  auto it = store_.find(lifn);
  if (it == store_.end()) return;
  Payload body = encode_payload(ReplicaPush{lifn, Payload(it->second.bytes)});
  auto& tracer = rpc_.host().tracer();
  for (int i = 0; i < copies_needed && i < static_cast<int>(peers_.size()); ++i) {
    ++stats_.replicas_pushed;
    std::uint64_t flow =
        rpc_.call(peers_[i], tags::kReplicate, body, [this, lifn](Result<Payload> r) {
          if (!r) log_.warn("replication of ", lifn, " failed: ", r.error().to_string());
        });
    if (tracer.flow_enabled())
      tracer.flow(engine_.now(), obs::TraceEvent::Phase::flow_step, "flow",
                  "files.replicate_push", flow,
                  {{"lifn", lifn}, {"peer", peers_[i].to_string()}});
  }
}

// ---------- FileClient ----------

FileClient::FileClient(transport::RpcEndpoint& rpc, std::vector<simnet::Address> rc_replicas,
                       FileClientConfig config)
    : rpc_(rpc),
      rc_(rpc, std::move(rc_replicas)),
      config_(config),
      log_("fileclient@" + rpc.host().name(), rpc.host().clock()) {
  if (config_.stripes == 0) config_.stripes = 1;
  if (config_.chunk == 0) config_.chunk = 64 * 1024;
  rpc_.on_notify(files::tags::kSourceData, [this, alive = std::weak_ptr<char>(alive_)](
                                               const simnet::Address&, const Payload& body) {
    if (alive.expired()) return;  // endpoint outlived this client
    auto data = decode<SourceChunk>(body);
    if (!data) return;
    SourceChunk& c = data.value();
    auto it = reads_.find(c.read_id);
    if (it == reads_.end()) return;
    PendingRead& read = it->second;
    auto& tracer = rpc_.host().tracer();
    if (tracer.flow_enabled() && rpc_.srudp().last_delivered_flow() != 0)
      tracer.flow(rpc_.engine().now(), obs::TraceEvent::Phase::flow_step, "flow",
                  "files.source_chunk_rx", rpc_.srudp().last_delivered_flow(),
                  {{"lifn", read.lifn},
                   {"offset", std::to_string(c.offset)},
                   {"bytes", std::to_string(c.chunk.size())}});
    if (!read.total_known) {
      read.total = c.total;
      on_total_known(read);
    }
    const std::uint64_t end = c.offset + c.chunk.size();
    if (end > read.total || c.chunk.empty()) return;
    const std::uint64_t ci = c.offset / config_.chunk;
    const std::uint32_t s = static_cast<std::uint32_t>(ci % read.stripes.size());
    Stripe& stripe = read.stripes[s];
    stripe.last_progress = rpc_.engine().now();
    const std::uint64_t n = c.chunk.size();
    if (read.chunks.emplace(c.offset, std::move(c.chunk)).second) {
      read.bytes_have += n;
      stripe.received += n;
    }
    if (!stripe.done && stripe.received >= stripe.expected) note_stripe_done(read, stripe);
    if (read.bytes_have >= read.total) finish_read(c.read_id, ok_result());
  });
}

FileClient::~FileClient() {
  for (auto& [id, read] : reads_)
    for (auto& s : read.stripes) rpc_.engine().cancel(s.timer);
}

void FileClient::write(const simnet::Address& server, const std::string& lifn,
                       Payload content, DoneHandler done) {
  rpc_.call(server, tags::kOpenSink,
            encode_payload(OpenSink{lifn, content.size(), config_.stripes}),
            [this, alive = std::weak_ptr<char>(alive_), server,
             content = std::move(content), done = std::move(done)](Result<Payload> r) mutable {
              if (alive.expired()) {
                done(Error{Errc::cancelled, "file client destroyed"});
                return;
              }
              if (!r) {
                done(r.error());
                return;
              }
              auto id = decode<std::uint64_t>(r.value());
              if (!id) {
                done(id.error());
                return;
              }
              // Stream the content as offset-stamped SNIPE messages to the
              // sink (§5.9), one stripe's chunk sequence at a time.  The
              // offsets make the order irrelevant and let kCloseSink verify
              // completeness before storing.
              auto& tracer = rpc_.host().tracer();
              const std::uint64_t total = content.size();
              const std::uint64_t chunk = config_.chunk;
              for (std::uint32_t s = 0; s < config_.stripes; ++s) {
                for (std::uint64_t ci = s; ci * chunk < total; ci += config_.stripes) {
                  std::uint64_t offset = ci * chunk;
                  std::uint64_t n = std::min<std::uint64_t>(chunk, total - offset);
                  std::uint64_t flow = rpc_.notify(
                      server, tags::kSinkData,
                      encode_payload(SinkChunk{id.value(), offset, content.slice(offset, n)}));
                  if (tracer.flow_enabled())
                    tracer.flow(rpc_.engine().now(), obs::TraceEvent::Phase::flow_step, "flow",
                                "files.sink_chunk", flow,
                                {{"sink", std::to_string(id.value())},
                                 {"stripe", std::to_string(s)},
                                 {"offset", std::to_string(offset)},
                                 {"bytes", std::to_string(n)}});
                }
              }
              rpc_.call(server, tags::kCloseSink, encode_payload(id.value()),
                        [done = std::move(done)](Result<Payload> r2) {
                          if (!r2)
                            done(r2.error());
                          else
                            done(ok_result());
                        });
            });
}

std::vector<simnet::Address> FileClient::rank_candidates(
    std::vector<simnet::Address> servers) const {
  simnet::World* world = rpc_.host().world();
  const std::string& me = rpc_.host().name();
  auto failures = [this](const simnet::Address& a) {
    auto it = host_failures_.find(a.host);
    return it == host_failures_.end() ? 0 : it->second;
  };
  std::stable_sort(servers.begin(), servers.end(),
                   [&](const simnet::Address& a, const simnet::Address& b) {
                     int fa = failures(a), fb = failures(b);
                     if (fa != fb) return fa < fb;
                     return world->net_distance(me, a.host) < world->net_distance(me, b.host);
                   });
  return servers;
}

void FileClient::read(const std::string& lifn, ReadHandler done) {
  rc_.get(lifn, [this, alive = std::weak_ptr<char>(alive_), lifn, done = std::move(done)](
                    Result<std::vector<rcds::Assertion>> r) mutable {
    if (alive.expired()) {
      done(Error{Errc::cancelled, "file client destroyed"});
      return;
    }
    if (!r) {
      done(r.error());
      return;
    }
    std::vector<simnet::Address> locations;
    std::string hash;
    for (const auto& a : r.value()) {
      if (a.name == rcds::names::kLifnLocation) {
        if (auto uri = snipe::parse_uri(a.value); uri.ok())
          locations.push_back(simnet::Address{
              uri.value().host, static_cast<std::uint16_t>(uri.value().port)});
      } else if (a.name == rcds::names::kLifnHash) {
        hash = a.value;
      }
    }
    if (locations.empty()) {
      done(Error{Errc::not_found, "no replicas registered for " + lifn});
      return;
    }
    std::uint64_t id = next_read_id_++;
    PendingRead read;
    read.lifn = lifn;
    read.expect_hash = hash;
    read.done = std::move(done);
    read.candidates = rank_candidates(std::move(locations));
    read.stripes.resize(config_.stripes);
    for (std::uint32_t s = 0; s < config_.stripes; ++s) {
      read.stripes[s].index = s;
      read.stripes[s].candidate = s % read.candidates.size();
    }
    reads_[id] = std::move(read);
    for (std::uint32_t s = 0; s < config_.stripes; ++s) open_stripe(id, s);
  });
}

obs::Counter& FileClient::instrument(obs::Counter*& slot, const char* name) {
  if (slot == nullptr) slot = &rpc_.host().metrics().counter(name);
  return *slot;
}

int FileClient::attempt_budget(const PendingRead& read) const {
  return static_cast<int>(read.candidates.size()) * 2 + 1;
}

void FileClient::open_stripe(std::uint64_t read_id, std::uint32_t stripe) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  PendingRead& read = it->second;
  Stripe& st = read.stripes[stripe];
  const simnet::Address server = read.candidates[st.candidate];
  ++st.attempts;
  const int attempt = st.attempts;
  const SimTime now = rpc_.engine().now();
  st.opened_at = now;
  st.last_progress = now;
  instrument(stripe_opens_, "files.stripe_opens").inc();
  std::uint64_t flow = rpc_.call(
      server, tags::kOpenSource,
      encode_payload(OpenSource{read.lifn, rpc_.address(), read_id, stripe,
                                static_cast<std::uint32_t>(read.stripes.size()), config_.chunk}),
      [this, alive = std::weak_ptr<char>(alive_), read_id, stripe,
       attempt](Result<Payload> r) {
        if (alive.expired()) return;
        auto rit = reads_.find(read_id);
        if (rit == reads_.end()) return;
        PendingRead& read = rit->second;
        Stripe& st = read.stripes[stripe];
        if (st.done || st.attempts != attempt) return;  // superseded
        if (!r) {
          ++host_failures_[read.candidates[st.candidate].host];
          log_.debug("stripe ", stripe, " of ", read.lifn, " open failed at ",
                     read.candidates[st.candidate].to_string(), ": ",
                     r.error().to_string());
          reissue_stripe(read_id, stripe, "open_failed");
          return;
        }
        auto sizes = decode<std::pair<std::uint64_t, std::uint64_t>>(r.value());
        if (!sizes) return;
        st.last_progress = rpc_.engine().now();
        if (!read.total_known) {
          read.total = sizes.value().first;
          on_total_known(read);
        }
        // A stripe that owns no bytes (or an empty file) completes on the
        // open response alone; chunks, when there are any, were queued
        // ahead of this response and have usually landed already.
        if (!st.done && st.received >= st.expected) note_stripe_done(read, st);
        if (read.bytes_have >= read.total) finish_read(read_id, ok_result());
      },
      kOpenTimeout);
  auto& tracer = rpc_.host().tracer();
  if (tracer.flow_enabled())
    tracer.flow(rpc_.engine().now(), obs::TraceEvent::Phase::flow_step, "flow",
                "files.stripe_open", flow,
                {{"lifn", read.lifn},
                 {"stripe", std::to_string(stripe)},
                 {"replica", server.to_string()},
                 {"attempt", std::to_string(attempt)}});
  arm_stripe_timer(read_id, stripe);
}

void FileClient::arm_stripe_timer(std::uint64_t read_id, std::uint32_t stripe) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  Stripe& st = it->second.stripes[stripe];
  rpc_.engine().cancel(st.timer);
  st.timer = rpc_.engine().schedule(kStripeStall, [this, read_id, stripe] {
    auto rit = reads_.find(read_id);
    if (rit == reads_.end()) return;
    PendingRead& read = rit->second;
    Stripe& st = read.stripes[stripe];
    st.timer = simnet::TimerId{};
    if (st.done) return;
    const SimTime now = rpc_.engine().now();
    const SimDuration idle = now - st.last_progress;
    if (idle < kStripeStall) {
      // Progress since the timer was armed: wait out the remainder.
      st.timer = rpc_.engine().schedule(
          kStripeStall - idle,
          [this, read_id, stripe] { arm_stripe_timer(read_id, stripe); });
      return;
    }
    const std::string replica = read.candidates[st.candidate].to_string();
    ++host_failures_[read.candidates[st.candidate].host];
    instrument(stripe_stalls_, "files.stripe_stalls").inc();
    rpc_.host().flight().record(
        "files", "stripe_stall",
        "lifn=" + read.lifn + " stripe=" + std::to_string(stripe) + " replica=" + replica +
            " got=" + std::to_string(st.received) + "/" + std::to_string(st.expected));
    log_.debug("stripe ", stripe, " of ", read.lifn, " stalled at ", replica);
    reissue_stripe(read_id, stripe, "stall");
  });
}

void FileClient::reissue_stripe(std::uint64_t read_id, std::uint32_t stripe,
                                const char* why) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  PendingRead& read = it->second;
  Stripe& st = read.stripes[stripe];
  if (st.done) return;
  rpc_.engine().cancel(st.timer);
  st.timer = simnet::TimerId{};
  if (st.attempts >= attempt_budget(read)) {
    finish_read(read_id,
                Error{Errc::unreachable, "stripe " + std::to_string(stripe) + " of " +
                                             read.lifn + " unrecoverable (" + why + ")"});
    return;
  }
  // Next-best replica: fewest observed failures, ranked order breaking
  // ties, avoiding the one that just failed when there is a choice.
  auto failures = [this](const simnet::Address& a) {
    auto fit = host_failures_.find(a.host);
    return fit == host_failures_.end() ? 0 : fit->second;
  };
  std::size_t best = st.candidate;
  int best_score = std::numeric_limits<int>::max();
  for (std::size_t j = 0; j < read.candidates.size(); ++j) {
    if (j == st.candidate && read.candidates.size() > 1) continue;
    int score = failures(read.candidates[j]);
    if (score < best_score) {
      best_score = score;
      best = j;
    }
  }
  st.candidate = best;
  instrument(stripe_reissues_, "files.stripe_reissues").inc();
  rpc_.host().flight().record(
      "files", "stripe_reissue",
      "lifn=" + read.lifn + " stripe=" + std::to_string(stripe) + " to=" +
          read.candidates[best].to_string() + " attempt=" + std::to_string(st.attempts + 1) +
          " why=" + why);
  open_stripe(read_id, stripe);
}

void FileClient::on_total_known(PendingRead& read) {
  read.total_known = true;
  const std::uint64_t chunk = config_.chunk;
  const std::size_t k = read.stripes.size();
  for (std::uint64_t ci = 0; ci * chunk < read.total; ++ci) {
    std::uint64_t n = std::min<std::uint64_t>(chunk, read.total - ci * chunk);
    read.stripes[ci % k].expected += n;
  }
}

void FileClient::note_stripe_done(PendingRead& read, Stripe& s) {
  s.done = true;
  rpc_.engine().cancel(s.timer);
  s.timer = simnet::TimerId{};
  if (stripe_ms_ == nullptr) stripe_ms_ = &rpc_.host().metrics().histogram("files.stripe_ms");
  stripe_ms_->observe(
      static_cast<double>(rpc_.engine().now() - s.opened_at) / 1e6);
  // The serving replica finished a stripe: decay its failure score so a
  // healed host climbs back up the ranking.
  auto it = host_failures_.find(read.candidates[s.candidate].host);
  if (it != host_failures_.end()) it->second /= 2;
}

void FileClient::finish_read(std::uint64_t read_id, Result<void> result) {
  auto it = reads_.find(read_id);
  if (it == reads_.end()) return;
  PendingRead read = std::move(it->second);
  for (auto& s : read.stripes) rpc_.engine().cancel(s.timer);
  reads_.erase(it);
  if (!result) {
    read.done(result.error());
    return;
  }
  Payload content = assemble(read.chunks);
  // Chunks sliced from replicas' sealed copies of the file, each at its own
  // offset, are verified by the shared sealed digest; a short tail the
  // transport copied is memcmp'd against the first copy; anything else is
  // hashed over its segments (crypto::verified_sha256).
  if (!read.expect_hash.empty() &&
      crypto::digest_hex(crypto::verified_sha256(content)) != read.expect_hash) {
    read.done(Error{Errc::corrupt, "content hash mismatch"});
    return;
  }
  read.done(content.to_bytes());
}

}  // namespace snipe::files
