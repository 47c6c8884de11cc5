#include "simnet/world.hpp"

#include <algorithm>
#include <cassert>
#include <ctime>
#include <iterator>
#include <queue>

#include "obs/metrics.hpp"
#include "simnet/fault.hpp"
#include "simnet/topo.hpp"

namespace snipe::simnet {

namespace {

/// Shard index of the calling thread: workers of a sharded World set this
/// for their lifetime; -1 on the coordinator (and every other) thread.
thread_local int t_current_shard = -1;

/// CPU time consumed by the calling thread.  This is what the windowed
/// driver charges per shard per window: on a box with fewer cores than
/// shards the wall clock measures scheduling luck, while the per-window
/// maximum of this is the true critical path of the parallel execution.
std::uint64_t thread_cpu_ns() {
#if defined(__linux__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
#endif
  return 0;
}

SimTime sat_add(SimTime a, SimTime b) {
  return b >= Engine::kNever - a ? Engine::kNever : a + b;
}

/// Deterministic equal-cost tie-break for route resolution: FNV-1a over the
/// (src, dst, relaxed edge) names, so distinct host pairs spread across
/// parallel fabric planes while one pair always takes one path.
std::uint64_t route_tie(const std::string& src, const std::string& dst,
                        const std::string& from, const std::string& to,
                        const std::string& net) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ 0x1f) * 1099511628211ULL;  // separator: "ab"+"c" != "a"+"bc"
  };
  mix(src);
  mix(dst);
  mix(from);
  mix(to);
  mix(net);
  return h;
}

/// What became of one datagram on one network: the replay digest's alphabet.
enum class Fate : std::uint8_t {
  delivered, media_loss, fault_drop, fault_corrupt, fault_duplicate, down, unbound
};

/// The NetStats counter each Fate bumps, indexed by Fate.
constexpr std::atomic<std::uint64_t> NetStats::*kFateCounter[] = {
    &NetStats::packets_delivered, &NetStats::drops_loss,       &NetStats::drops_fault,
    &NetStats::fault_corruptions, &NetStats::fault_duplicates, &NetStats::drops_down,
    &NetStats::drops_unbound};

/// splitmix64's finalizer: a bijective 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counts one datagram fate in `net`'s NetStats and adds its hash over
/// (fate, t, src, dst, port, len) to the network's replay digest.  Both are
/// atomic adds, so shards tally without a lock and the digest does not
/// depend on the order of its terms.
void tally(Network& net, Fate fate, SimTime t, const Node& src, const Node& dst,
           std::uint16_t port, std::size_t len) {
  NetStats& stats = net.stats();
  ++(stats.*kFateCounter[static_cast<std::size_t>(fate)]);
  std::uint64_t h = mix64(static_cast<std::uint64_t>(fate) * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(t));
  h = mix64(h ^ src.name_hash());
  h = mix64(h ^ dst.name_hash());
  h = mix64(h ^ (std::uint64_t{port} << 48) ^ static_cast<std::uint64_t>(len));
  stats.digest.fetch_add(h, std::memory_order_relaxed);
}

}  // namespace

Host* Nic::host() const { return node_->is_router() ? nullptr : static_cast<Host*>(node_); }

void Nic::set_up(bool up) {
  // Routes can traverse zone-owned segments and any NIC of a router (even
  // on a zoneless network), so either kind of flap invalidates caches.
  // Host NICs on flat networks never appear inside a route's interior.
  if (up_ != up && node_->world() != nullptr &&
      (network_->zone() != nullptr || node_->is_router()))
    node_->world()->bump_route_epoch();
  up_ = up;
}

SimTime Nic::transmit(SimTime now, std::size_t bytes) {
  const MediaModel& model = network_->model();
  SimTime start = std::max(now, next_free());
  SimDuration ser = model.serialize_time(bytes);
  set_next_free(start + ser);
  tx_packets_.fetch_add(1, std::memory_order_relaxed);
  tx_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  busy_ns_.fetch_add(static_cast<std::uint64_t>(ser), std::memory_order_relaxed);
  return start + ser + model.latency;
}

void Network::set_up(bool up) {
  if (up_ != up && world_ != nullptr) world_->bump_route_epoch();
  up_ = up;
}

Node::Node(World* world, std::string name, Rng rng, Engine* engine, std::size_t shard,
           bool is_router)
    : world_(world),
      name_(std::move(name)),
      name_hash_(Rng::hash_name(name_)),
      rng_(rng),
      engine_(engine),
      shard_(shard),
      is_router_(is_router) {}

void Node::set_up(bool up) {
  if (up_ != up && is_router_ && world_ != nullptr) world_->bump_route_epoch();
  up_ = up;
}

Nic* Node::nic_on(const std::string& network) {
  for (auto& nic : nics_)
    if (nic->network()->name() == network) return nic.get();
  return nullptr;
}

Nic* Node::nic_on(const Network* network) {
  for (auto& nic : nics_)
    if (nic->network() == network) return nic.get();
  return nullptr;
}

Host::Host(World* world, std::string name, Rng rng, Engine* engine, std::size_t shard)
    : Node(world, std::move(name), rng, engine, shard, /*is_router=*/false),
      flight_(name_, clock()) {}

Host::~Host() { delete metrics_.load(std::memory_order_acquire); }

obs::MetricsRegistry& Host::metrics() {
  obs::MetricsRegistry* r = metrics_.load(std::memory_order_acquire);
  if (r != nullptr) return *r;
  // Created on first use, so a host nothing registers on costs one pointer.
  // A lost creation race just unlinks its spare, empty registry.
  auto fresh = std::make_unique<obs::MetricsRegistry>(obs::MetricsRegistry::global());
  if (metrics_.compare_exchange_strong(r, fresh.get(), std::memory_order_acq_rel))
    return *fresh.release();
  return *r;
}

Result<void> Host::bind(std::uint16_t port, PacketHandler handler) {
  if (ports_.count(port))
    return Error{Errc::already_exists, name_ + " port " + std::to_string(port) + " in use"};
  ports_[port] = std::move(handler);
  return ok_result();
}

void Host::unbind(std::uint16_t port) { ports_.erase(port); }

std::uint16_t Host::ephemeral_port() {
  while (ports_.count(next_ephemeral_)) {
    ++next_ephemeral_;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
  }
  return next_ephemeral_++;
}

Address Endpoint::address() const { return {host == nullptr ? "?" : host->name(), port}; }

std::string Endpoint::to_string() const { return address().to_string(); }

Result<std::string> Host::send(const Address& dst, Payload payload, const SendOptions& opts) {
  if (!up_) return Error{Errc::unreachable, name_ + " is down"};
  Host* dst_host = world_->host(dst.host);
  if (!dst_host) return Error{Errc::not_found, "no such host " + dst.host};
  auto r = send(dst_host, dst.port, std::move(payload), opts);
  if (!r) return r.error();
  return r.value()->name();
}

Result<Network*> Host::send(Host* dst_host, std::uint16_t dst_port, Payload payload,
                            const SendOptions& opts) {
  if (!up_) return Error{Errc::unreachable, name_ + " is down"};
  if (!dst_host) return Error{Errc::not_found, "no such host"};

  // Candidate networks: both endpoints attached with up NICs, network up.
  // §5.3: "the message is sent using the fastest of those" — order by
  // effective bandwidth, then lower latency, then name for determinism.
  // Candidates live in inline storage and are ordered by an allocation-free
  // stable insertion sort: this runs once per datagram, and the two small
  // heap allocations the old vector + stable_sort pair made here were the
  // hottest allocation site in the simulator.
  using Candidate = std::pair<Nic*, Nic*>;  // (our nic, their nic)
  constexpr std::size_t kInlineCandidates = 16;
  Candidate inline_cand[kInlineCandidates];
  std::vector<Candidate> overflow;
  std::size_t ncand = 0;
  for (auto& nic : nics_) {
    if (!nic->up() || !nic->network()->up()) continue;
    Nic* theirs = dst_host->nic_on(nic->network());
    if (theirs == nullptr) continue;
    if (ncand < kInlineCandidates && overflow.empty()) {
      inline_cand[ncand++] = {nic.get(), theirs};
    } else {
      if (overflow.empty()) overflow.assign(inline_cand, inline_cand + ncand);
      overflow.emplace_back(nic.get(), theirs);
      ++ncand;
    }
  }
  if (ncand == 0) return send_routed(dst_host, dst_port, std::move(payload), opts);
  Candidate* first = overflow.empty() ? inline_cand : overflow.data();
  Candidate* last = first + ncand;

  auto faster = [](const Candidate& a, const Candidate& b) {
    const MediaModel& ma = a.first->network()->model();
    const MediaModel& mb = b.first->network()->model();
    double ea = ma.bandwidth_bps * (1.0 - ma.cell_tax);
    double eb = mb.bandwidth_bps * (1.0 - mb.cell_tax);
    if (ea != eb) return ea > eb;
    if (ma.latency != mb.latency) return ma.latency < mb.latency;
    return a.first->network()->name() < b.first->network()->name();
  };
  for (Candidate* i = first + 1; i < last; ++i) {
    Candidate key = *i;
    Candidate* j = i;
    for (; j > first && faster(key, j[-1]); --j) *j = j[-1];
    *j = key;
  }
  if (opts.preferred_network != nullptr) {
    Candidate* it = std::find_if(first, last, [&](const Candidate& c) {
      return c.first->network() == opts.preferred_network;
    });
    if (it != last) std::rotate(first, it, it + 1);
  }

  auto [ours, theirs] = *first;
  Network* net = ours->network();
  if (payload.size() > net->model().mtu)
    return Error{Errc::invalid_argument,
                 "datagram of " + std::to_string(payload.size()) + " bytes exceeds MTU " +
                     std::to_string(net->model().mtu) + " on " + net->name()};

  // The sender's own engine clocks serialization: a host's sends always run
  // on its shard's thread (or on the coordinator at a window barrier).
  SimTime arrival = ours->transmit(engine_->now(), payload.size());

  net->stats().packets_sent++;
  net->stats().bytes_sent += payload.size();

  bool lost = rng_.chance(net->total_loss());
  if (lost) {
    tally(*net, Fate::media_loss, arrival, *this, *dst_host, dst_port, payload.size());
    return net;  // like UDP: the sender cannot tell
  }

  world_->launch(*this, arrival, [&] {
    return World::Flight{Packet{this, opts.src_port, dst_port, net, std::move(payload)},
                         dst_host, {}, 0};
  });
  return net;
}

Result<Network*> Host::send_routed(Host* dst_host, std::uint16_t dst_port, Payload payload,
                                   const SendOptions& opts) {
  std::shared_ptr<const Route> route = world_->resolve_route(*this, dst_host);
  if (route == nullptr)
    return Error{Errc::unreachable,
                 "no shared network between " + name_ + " and " + dst_host->name()};
  if (payload.size() > route->mtu)
    return Error{Errc::invalid_argument,
                 "datagram of " + std::to_string(payload.size()) +
                     " bytes exceeds route MTU " + std::to_string(route->mtu) + " towards " +
                     dst_host->name()};

  // First hop: charged against our own NIC exactly like a direct send (same
  // contention clock, same stats, same single loss draw from our RNG).
  Network* net = route->hops[0].net;
  SimTime arrival = route->hops[0].tx->transmit(engine_->now(), payload.size());

  net->stats().packets_sent++;
  net->stats().bytes_sent += payload.size();

  if (rng_.chance(net->total_loss())) {
    tally(*net, Fate::media_loss, arrival, *this, *dst_host, dst_port, payload.size());
    return net;
  }

  // The flight takes the route reference for the whole path; hop 0 is
  // spent, so its next event forwards hop 1 (or delivers, on a 1-hop route).
  world_->launch(*this, arrival, [&] {
    return World::Flight{Packet{this, opts.src_port, dst_port, net, std::move(payload)},
                         dst_host, std::move(route), 1};
  });
  return net;
}

void Host::deliver(const Packet& packet) {
  // Conditions are re-checked at delivery time: the destination may have
  // died or the link may have failed while the packet was in flight.
  Network* network = packet.network;
  Nic* nic = nic_on(network);
  const SimTime now = engine_->now();
  const std::size_t len = packet.payload.size();
  if (!up_ || !network->up() || nic == nullptr || !nic->up()) {
    tally(*network, Fate::down, now, *packet.src, *this, packet.dst_port, len);
    return;
  }
  auto it = ports_.find(packet.dst_port);
  if (it == ports_.end()) {
    tally(*network, Fate::unbound, now, *packet.src, *this, packet.dst_port, len);
    return;
  }
  tally(*network, Fate::delivered, now, *packet.src, *this, packet.dst_port, len);
  it->second(packet);
}

Result<void> Host::broadcast(const std::string& network, std::uint16_t port, Payload payload,
                             std::uint16_t src_port) {
  if (!up_) return Error{Errc::unreachable, name_ + " is down"};
  Nic* ours = nic_on(network);
  if (ours == nullptr || !ours->up() || !ours->network()->up())
    return Error{Errc::unreachable, name_ + " has no up NIC on " + network};
  Network* net = ours->network();
  if (payload.size() > net->model().mtu)
    return Error{Errc::invalid_argument, "broadcast exceeds MTU on " + network};

  SimTime arrival = ours->transmit(engine_->now(), payload.size());

  // One serialization, one arrival event per receiver — shared-medium
  // broadcast, with loss drawn independently per receiver.  Routers on the
  // segment do not receive broadcasts.
  for (Nic* nic : net->nics()) {
    Host* target = nic->host();
    if (target == this || target == nullptr) continue;
    net->stats().packets_sent++;
    net->stats().bytes_sent += payload.size();
    if (rng_.chance(net->total_loss())) {
      tally(*net, Fate::media_loss, arrival, *this, *target, port, payload.size());
      continue;
    }
    world_->launch(*this, arrival, [&] {
      return World::Flight{Packet{this, src_port, port, net, payload}, target, {}, 0};
    });
  }
  return ok_result();
}

World::World(std::uint64_t seed, std::size_t shards)
    : tracer_(obs::Tracer::global()),
      flight_({}, [this] { return ctrl_->now(); }),
      flights_(shards) {
  assert(shards >= 1 && "a World needs at least one shard");
  engines_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Shard 0 carries the run seed: hosts fork their RNGs from it in
    // creation order, so the per-host streams are identical for every shard
    // count.  The other engines get decorrelated seeds of their own.
    engines_.push_back(
        std::make_unique<Engine>(seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i)));
  }
  if (shards > 1) {
    ctrl_engine_ = std::make_unique<Engine>(seed ^ 0xc2b2ae3d27d4eb4fULL);
    ctrl_ = ctrl_engine_.get();
  } else {
    ctrl_ = engines_[0].get();
  }
  mail_.resize(shards);
  for (auto& row : mail_) row.resize(shards);
  mail_seq_.assign(shards, 0);
  shard_busy_ns_.assign(shards, 0);
}

World::~World() {
  stop_workers();
  // Pending events may own endpoints that unbind from hosts on
  // destruction; release them while the hosts are still alive.
  if (ctrl_engine_) ctrl_engine_->clear();
  for (auto& e : engines_) e->clear();
  for (auto& row : mail_)
    for (auto& cell : row) cell.clear();
  flights_.clear();
}

SimTime World::now() const {
  // Only this World's workers set t_current_shard (to one of its shards).
  return t_current_shard >= 0 ? engines_[static_cast<std::size_t>(t_current_shard)]->now()
                              : ctrl_->now();
}

Network& World::create_network(const std::string& name, MediaModel model) {
  assert(!networks_.count(name) && "duplicate network name");
  auto net = std::make_unique<Network>(name, std::move(model));
  net->world_ = this;
  Network& ref = *net;
  networks_[name] = std::move(net);
  return ref;
}

Host& World::create_host(const std::string& name, std::size_t shard) {
  assert(!hosts_.count(name) && "duplicate host name");
  assert(shard < engines_.size() && "shard out of range");
  auto host = std::make_unique<Host>(this, name, engines_[0]->rng().fork(),
                                     engines_[shard].get(), shard);
  Host& ref = *host;
  hosts_[name] = std::move(host);
  return ref;
}

Router& World::create_router(const std::string& name, std::size_t shard) {
  assert(!routers_.count(name) && !hosts_.count(name) && "duplicate node name");
  assert(shard < engines_.size() && "shard out of range");
  auto router = std::make_unique<Router>(this, name, engines_[0]->rng().fork(),
                                         engines_[shard].get(), shard);
  Router& ref = *router;
  routers_[name] = std::move(router);
  bump_route_epoch();
  return ref;
}

Nic& World::attach(Node& node, Network& network) {
  auto nic = std::make_unique<Nic>(&node, &network);
  Nic& ref = *nic;
  network.nics_.push_back(nic.get());
  node.nics_.push_back(std::move(nic));
  if (network.zone() != nullptr || node.is_router()) bump_route_epoch();
  return ref;
}

Nic& World::attach(const std::string& host_name, const std::string& network_name) {
  Host* h = host(host_name);
  Network* n = network(network_name);
  assert(h && n && "attach: unknown host or network");
  return attach(*h, *n);
}

Host* World::host(const std::string& name) {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

Router* World::router(const std::string& name) {
  auto it = routers_.find(name);
  return it == routers_.end() ? nullptr : it->second.get();
}

Network* World::network(const std::string& name) {
  auto it = networks_.find(name);
  return it == networks_.end() ? nullptr : it->second.get();
}

// ---- multi-hop route resolution -------------------------------------------

std::shared_ptr<const Route> World::resolve_route(Host& src, Host* dst) {
  if (dst == nullptr || dst == &src) return nullptr;
  std::uint64_t epoch = route_epoch();
  auto it = src.route_cache_.find(dst);
  if (it != src.route_cache_.end() && it->second.epoch == epoch) return it->second.route;
  std::shared_ptr<const Route> route = compute_route(src, *dst);
  src.route_cache_[dst] = Host::CachedRoute{epoch, route};
  return route;
}

std::shared_ptr<const Route> World::resolve_route(Host& src, const std::string& dst) {
  return resolve_route(src, host(dst));
}

std::shared_ptr<const Route> World::compute_route(Host& src, Host& dst) {
  // Latency-shortest path over up links.  Vertices are nodes; an up network
  // connects every pair of its up attachments at the network's propagation
  // latency (counted once per traversal).  Hosts never forward: only the
  // source expands among hosts, and only the destination terminates.  The
  // destination itself is exempt from up checks — like the direct path, a
  // packet to a down endpoint still transmits and drops at delivery, so an
  // endpoint crash never changes route structure (and never needs an epoch
  // bump: the cached route stays correct across the restart).
  // Equal-cost ties are broken by a deterministic per-(src,dst,edge) hash,
  // so distinct pairs spread across parallel fabric planes (ECMP) while the
  // choice never depends on memory layout or thread timing.
  struct State {
    SimDuration dist = 0;
    std::uint64_t tie = 0;
    Node* prev = nullptr;
    Nic* via_tx = nullptr;
    Network* via_net = nullptr;
    std::size_t mtu = static_cast<std::size_t>(-1);
    bool done = false;
  };
  struct QItem {
    SimDuration dist;
    std::uint64_t tie;
    Node* node;
  };
  auto later = [](const QItem& a, const QItem& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    if (a.tie != b.tie) return a.tie > b.tie;
    return a.node->name() > b.node->name();
  };
  std::map<Node*, State> states;  // pointer keys: lookup only, never iterated
  std::priority_queue<QItem, std::vector<QItem>, decltype(later)> queue(later);
  states[&src] = State{};
  queue.push(QItem{0, 0, &src});
  while (!queue.empty()) {
    QItem top = queue.top();
    queue.pop();
    State& su = states[top.node];
    if (su.done || top.dist != su.dist || top.tie != su.tie) continue;  // stale entry
    su.done = true;
    if (top.node == &dst) break;
    if (top.node != &src && !top.node->is_router()) continue;
    for (const auto& nic : top.node->nics()) {
      Network* net = nic->network();
      if (!nic->up() || !net->up()) continue;
      SimDuration ndist = sat_add(top.dist, net->model().latency);
      std::size_t nmtu = std::min(su.mtu, net->model().mtu);
      for (Nic* other : net->nics()) {
        if (other == nic.get()) continue;
        Node* v = other->node();
        if (!v->is_router() && v != &dst) continue;
        if (v != &dst && (!other->up() || !v->up())) continue;
        std::uint64_t tie =
            route_tie(src.name(), dst.name(), top.node->name(), v->name(), net->name());
        State& sv = states[v];  // value-initialized on first touch
        bool fresh = sv.via_net == nullptr && v != &src;
        if (sv.done) continue;
        if (!fresh && (ndist > sv.dist || (ndist == sv.dist && tie >= sv.tie))) continue;
        sv.dist = ndist;
        sv.tie = tie;
        sv.prev = top.node;
        sv.via_tx = nic.get();
        sv.via_net = net;
        sv.mtu = nmtu;
        queue.push(QItem{ndist, tie, v});
      }
    }
  }
  auto dit = states.find(&dst);
  if (dit == states.end() || !dit->second.done) return nullptr;
  auto route = std::make_shared<Route>();
  route->dst = &dst;
  route->latency = dit->second.dist;
  route->mtu = dit->second.mtu;
  for (Node* n = &dst; n != &src;) {
    const State& s = states[n];
    route->hops.push_back(RouteHop{s.via_tx, s.via_net});
    n = s.prev;
  }
  std::reverse(route->hops.begin(), route->hops.end());
  return route;
}

SimDuration World::net_distance(const std::string& a, const std::string& b) {
  if (a == b) return 0;
  Host* ha = host(a);
  Host* hb = host(b);
  if (ha == nullptr || hb == nullptr) return kUnreachable;
  // Adjacent pair: the flat model's answer (best shared-network latency),
  // kept as a fast path so replica ranking inside a rack never pays a
  // graph walk.
  SimDuration best = kUnreachable;
  for (const auto& nic : ha->nics()) {
    if (!nic->up() || !nic->network()->up()) continue;
    Nic* theirs = hb->nic_on(nic->network());
    if (theirs == nullptr || !theirs->up()) continue;
    best = std::min(best, nic->network()->model().latency);
  }
  if (best != kUnreachable) return best;
  std::shared_ptr<const Route> route = resolve_route(*ha, hb);
  return route != nullptr ? route->latency : kUnreachable;
}

Node* World::Flight::next_node() const {
  return route != nullptr && hop < route->hops.size() ? route->hops[hop].tx->node() : target;
}

World::FlightSlab::~FlightSlab() {
  for (auto& chunk : chunks_)
    for (std::uint32_t i = 0; i < kChunk; ++i)
      if (chunk[i].live) std::launder(reinterpret_cast<Flight*>(chunk[i].bytes))->~Flight();
}

void World::FlightSlab::release(std::uint32_t slot) {
  Cell& cell = cell_at(slot);
  assert(cell.live && "flight released twice");
  (*this)[slot].~Flight();
  cell.live = false;
  cell.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void World::judge_and_post(const Node& lane, std::size_t shard, std::uint32_t slot,
                           SimTime arrival) {
  FlightSlab& slab = flights_[shard];
  Flight& flight = slab[slot];
  Packet& packet = flight.packet;
  Network* net = packet.network;
  FaultInjector* fault = net->fault();
  if (fault != nullptr) {
    // The lane is the transmitting node: the source host on the first hop,
    // the forwarding router on interior hops, so every injector lane stays
    // confined to one shard's thread.  Partition boundaries are judged on
    // the packet's end-to-end (src, dst) pair regardless of the lane.
    const Host& dst = *flight.target;
    FaultVerdict v = fault->judge(lane.name(), packet.src->name(), dst.name());
    const std::size_t len = packet.payload.size();
    if (v.drop) {
      tally(*net, Fate::fault_drop, arrival, *packet.src, dst, packet.dst_port, len);
      slab.release(slot);
      return;
    }
    if (v.corrupt) {
      fault->corrupt_payload(packet.payload, lane.name());
      tally(*net, Fate::fault_corrupt, arrival, *packet.src, dst, packet.dst_port, len);
    }
    if (v.copies > 1) {
      SimTime dup_arrival = arrival + v.extra_delay + v.dup_delay;
      tally(*net, Fate::fault_duplicate, dup_arrival, *packet.src, dst, packet.dst_port, len);
      // The duplicate is posted first, as it always has been: at equal
      // arrival times post order decides delivery order.
      post_flight(shard, slab.acquire([&] { return Flight(flight); }), dup_arrival);
    }
    arrival += v.extra_delay;
  }
  post_flight(shard, slot, arrival);
}

void World::forward_hop(std::size_t shard, std::uint32_t slot) {
  FlightSlab& slab = flights_[shard];
  Flight& flight = slab[slot];
  Packet& packet = flight.packet;
  const RouteHop& hop = flight.route->hops[flight.hop];
  Nic* tx = hop.tx;
  Node* node = tx->node();
  Network* net = hop.net;
  // The route was valid when resolved; re-check at forward time — the
  // router, its egress NIC or the link may have died while the packet was
  // in flight (§6's route-switching scenario: the transport's retransmit
  // re-resolves against the bumped epoch and fails over).
  Engine& engine = node->engine();
  const std::size_t len = packet.payload.size();
  if (!node->up() || !tx->up() || !net->up()) {
    tally(*net, Fate::down, engine.now(), *packet.src, *flight.target, packet.dst_port, len);
    slab.release(slot);
    return;
  }
  SimTime arrival = tx->transmit(engine.now(), len);

  net->stats().packets_sent++;
  net->stats().bytes_sent += len;

  if (node->rng().chance(net->total_loss())) {
    tally(*net, Fate::media_loss, arrival, *packet.src, *flight.target, packet.dst_port, len);
    slab.release(slot);
    return;
  }

  packet.network = net;
  ++flight.hop;
  judge_and_post(*node, shard, slot, arrival);
}

void World::land(std::size_t shard, std::uint32_t slot) {
  FlightSlab& slab = flights_[shard];
  Flight& flight = slab[slot];
  if (flight.route != nullptr && flight.hop < flight.route->hops.size()) {
    forward_hop(shard, slot);
    return;
  }
  // The slot stays taken while the handler runs (it may send), and the
  // slab's chunks never move, so `flight` stays valid throughout.
  flight.target->deliver(flight.packet);
  slab.release(slot);
}

void World::schedule_flight(Engine& engine, SimTime when, std::size_t shard,
                            std::uint32_t slot) {
  engine.schedule_at(when, [this, shard, slot] { land(shard, slot); });
}

void World::post_flight(std::size_t shard, std::uint32_t slot, SimTime when) {
  Flight& flight = flights_[shard][slot];
  Node* next = flight.next_node();
  const std::size_t to = next->shard();
  Engine& engine = next->engine();
  // A coordinator-initiated send can race the destination clock (its shard
  // may have simulated past the arrival already), so it lands no earlier
  // than the target's now.
  if (to == shard) {
    schedule_flight(engine, std::max(when, engine.now()), shard, slot);
    return;
  }
  int src = t_current_shard;
  if (src < 0) {
    // The coordinator between windows: every worker is parked, so the
    // flight moves straight into its destination shard's slab.
    std::uint32_t moved = flights_[to].acquire([&] { return std::move(flight); });
    flights_[shard].release(slot);
    schedule_flight(engine, std::max(when, engine.now()), to, moved);
    return;
  }
  // Cross-shard: park it in the mailbox until the window barrier.  The
  // conservative window guarantees arrival >= the window end, so the
  // destination has not simulated past it.
  assert(static_cast<std::size_t>(src) == shard && "a flight posted off its shard's thread");
  mail_[shard][to].push_back(MailItem{when, mail_seq_[shard]++, std::move(flight)});
  flights_[shard].release(slot);
}

void World::drain_mailboxes() {
  struct Entry {
    std::size_t src;
    MailItem* item;
  };
  std::vector<Entry> entries;
  for (std::size_t s = 0; s < mail_.size(); ++s)
    for (auto& cell : mail_[s])
      for (auto& item : cell) entries.push_back(Entry{s, &item});
  if (entries.empty()) return;
  // Deterministic insertion order: arrival time, then source shard, then
  // the source's posting sequence.  Engine sequence numbers then preserve
  // this order among equal-time deliveries, so the destination sees the
  // same equal-time ordering for every shard count that keeps the sources
  // on distinct shards.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.item->arrival != b.item->arrival) return a.item->arrival < b.item->arrival;
    if (a.src != b.src) return a.src < b.src;
    return a.item->seq < b.item->seq;
  });
  run_stats_.cross_shard_packets += entries.size();
  for (Entry& e : entries) {
    Node* next = e.item->flight.next_node();
    Engine& engine = next->engine();
    assert(e.item->arrival >= engine.now() && "conservative window violated");
    std::uint32_t slot =
        flights_[next->shard()].acquire([&] { return std::move(e.item->flight); });
    schedule_flight(engine, e.item->arrival, next->shard(), slot);
  }
  for (auto& row : mail_)
    for (auto& cell : row) cell.clear();
}

SimTime World::compute_lookahead() const {
  SimTime la = Engine::kNever;
  for (const auto& [name, net] : networks_) {
    bool cross = false;
    std::size_t first_shard = 0;
    bool seen = false;
    for (const Nic* nic : net->nics()) {
      std::size_t s = nic->node()->shard();
      if (!seen) {
        first_shard = s;
        seen = true;
      } else if (s != first_shard) {
        cross = true;
        break;
      }
    }
    if (cross) la = std::min(la, net->model().latency);
  }
  // A zero-latency cross-shard link would make windows empty; clamp to one
  // tick (such a link also voids the conservative guarantee — see
  // DESIGN.md §sharded-engine).
  return std::max<SimTime>(la, 1);
}

void World::ensure_workers() {
  if (engines_.size() == 1 || !workers_.empty()) return;
  workers_.reserve(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void World::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  quit_ = false;
}

void World::worker_main(std::size_t shard) {
  Engine* eng = engines_[shard].get();
  // For this thread's whole life: World::now() reads this shard's engine,
  // and flights posted from here route through post_flight's shard-aware
  // path.
  t_current_shard = static_cast<int>(shard);
  std::uint64_t seen = 0;
  while (true) {
    SimTime end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return quit_ || window_gen_ != seen; });
      if (quit_) return;
      seen = window_gen_;
      end = window_end_;
    }
    std::uint64_t c0 = thread_cpu_ns();
    eng->run_before(end, /*weak_too=*/true);
    std::uint64_t c1 = thread_cpu_ns();
    {
      std::lock_guard<std::mutex> lock(mu_);
      shard_busy_ns_[shard] = c1 - c0;
      if (++done_ == engines_.size()) cv_done_.notify_one();
    }
  }
}

void World::run_windows(SimTime horizon, bool stop_when_strong_drained) {
  ensure_workers();
  lookahead_ = compute_lookahead();
  const std::size_t n = engines_.size();
  while (true) {
    if (stop_when_strong_drained) {
      std::size_t strong = ctrl_->strong_pending();
      for (auto& e : engines_) strong += e->strong_pending();
      if (strong == 0) break;
    }
    SimTime ctrl_next = ctrl_->next_event_time();
    SimTime s = ctrl_next;
    for (auto& e : engines_) s = std::min(s, e->next_event_time());
    if (s == Engine::kNever || s > horizon) break;
    if (ctrl_next == s) {
      // Control actions at time s run first, on this thread, with every
      // worker idle: they may touch any host or network safely, and
      // whatever they schedule at s is picked up when the loop recomputes.
      ctrl_->run_before(sat_add(s, 1), /*weak_too=*/true);
      continue;
    }
    // Conservative window [s, e): nothing can cross shards into it.
    SimTime e = std::min({sat_add(s, lookahead_), ctrl_next, sat_add(horizon, 1)});
    {
      std::unique_lock<std::mutex> lock(mu_);
      window_end_ = e;
      done_ = 0;
      ++window_gen_;
      cv_work_.notify_all();
      cv_done_.wait(lock, [&] { return done_ == n; });
    }
    // Workers are idle again; the barrier above is the happens-before edge
    // that publishes their window's writes (mailboxes, busy times, host
    // state) to this thread.
    drain_mailboxes();
    ++run_stats_.windows;
    std::uint64_t wmax = 0;
    for (std::uint64_t b : shard_busy_ns_) {
      wmax = std::max(wmax, b);
      run_stats_.busy_ns += b;
    }
    run_stats_.critical_path_ns += wmax;
  }
}

void World::run_until(SimTime t) {
  if (engines_.size() == 1) {
    engines_[0]->run_until(t);
    return;
  }
  run_windows(t, /*stop_when_strong_drained=*/false);
  for (auto& e : engines_) e->advance_to(t);
  ctrl_->advance_to(t);
}

std::size_t World::run_all() {
  std::uint64_t before = events_run();
  if (engines_.size() == 1) {
    engines_[0]->run();
  } else {
    run_windows(Engine::kNever, /*stop_when_strong_drained=*/true);
  }
  return static_cast<std::size_t>(events_run() - before);
}

std::vector<obs::FlightEvent> World::flight_timeline() const {
  std::vector<obs::FlightEvent> out = flight_.events();
  for (const auto& [name, host] : hosts_) {
    std::vector<obs::FlightEvent> own = host->flight_.events();
    out.insert(out.end(), std::make_move_iterator(own.begin()),
               std::make_move_iterator(own.end()));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
                     return a.ts < b.ts;
                   });
  return out;
}

std::uint64_t World::replay_digest() const {
  std::uint64_t sum = 0;
  for (const auto& [name, net] : networks_)
    sum += net->stats().digest.load(std::memory_order_relaxed);
  return sum;
}

std::size_t World::in_flight() const {
  std::size_t n = 0;
  for (const FlightSlab& slab : flights_) n += slab.live();
  for (const auto& row : mail_)
    for (const auto& cell : row) n += cell.size();
  return n;
}

std::uint64_t World::events_run() const {
  std::uint64_t total = ctrl_engine_ ? ctrl_engine_->events_run() : 0;
  for (const auto& e : engines_) total += e->events_run();
  return total;
}

}  // namespace snipe::simnet
