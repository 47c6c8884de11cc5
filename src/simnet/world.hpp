// Hosts, routers, networks, routing zones and datagram delivery.
//
// A World is the simulated testbed: named hosts, each multi-homed onto one
// or more named networks (Ethernet segments, an ATM fabric, a WAN path).
// The only service simnet itself offers is an unreliable, MTU-limited,
// possibly-lossy datagram: exactly the substrate UDP gave the real SNIPE
// comms module.  Reliability, fragmentation, streams and multicast all live
// one layer up, in snipe::transport, as they did in the paper (§6).
//
// Topology comes in two shapes:
//
//  * Flat (the original model): hosts share media directly, and two hosts
//    can talk iff a common network is up between them.  Everything built
//    through create_network/create_host/attach behaves bit-for-bit as it
//    always has — no routes, no extra RNG draws.
//  * Zoned (simnet/topo.hpp): a tree of routing Zones whose leaves are
//    media segments and whose interior nodes are fat-tree clusters, star
//    LANs and WAN interconnects joined by gateway *routers*.  A datagram
//    between hosts with no shared medium resolves a multi-hop route
//    (cached per host pair, invalidated whenever topology state changes);
//    each hop pays serialize + propagation on its medium, and per-NIC
//    bandwidth sharing charges every flow crossing a shared link — incast
//    into a rack and thin-pipe WAN bottlenecks emerge from the model.
//
// Names are the API, pointers the data path.  Callers address a peer by
// Address {host name, port}; Host::send(Address) resolves the name once and
// forwards to Host::send(Host*, port), which the transports call directly
// with the interned Endpoint {Host*, port} they key their peer tables by.
// No per-datagram step compares, copies or returns a name: a Packet names
// its source by Host*, its medium by Network*, and SendOptions its
// preferred network by pointer.
//
// Failure injection is first-class: hosts, routers, networks and individual
// NICs can be taken down and brought back at any virtual time; in-flight
// packets to a dead destination are dropped, which is what the transport's
// failover logic (§6: "switch routes/interfaces as links failed") must cope
// with.  Richer, adversarial failure modes — burst loss, duplication,
// reordering, corruption, partitions, crash/restart schedules — attach per
// network via simnet/fault.hpp's FaultInjector/FaultPlan.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "simnet/engine.hpp"
#include "simnet/media.hpp"
#include "util/bytes.hpp"
#include "util/payload.hpp"
#include "util/result.hpp"

namespace snipe::obs {
class MetricsRegistry;
class SeriesStore;
}  // namespace snipe::obs

namespace snipe::simnet {

class FaultInjector;  // simnet/fault.hpp
class Zone;           // simnet/topo.hpp

/// A network endpoint: host name + port.
struct Address {
  std::string host;
  std::uint16_t port = 0;

  template <class Io>
  void fields(Io& io) {
    io(host, port);
  }
  std::string to_string() const { return host + ":" + std::to_string(port); }
  friend bool operator==(const Address&, const Address&) = default;
  friend bool operator<(const Address& a, const Address& b) {
    return a.host != b.host ? a.host < b.host : a.port < b.port;
  }
};

class World;
class Host;
class Router;
class Node;
class Network;

/// An interned network endpoint: the host itself and a port, the fixed-width
/// pair a real UDP link is named by.  Trivially copyable and hashed by
/// pointer, so transports key their per-peer tables by it and the per-
/// datagram path compares two words instead of two strings.  Address stays
/// the public, by-name API: a transport resolves a destination's name once
/// (World::endpoint) and builds an Address only where a name is wanted —
/// logs, flight entries, traces and the message handler's `src`.
///
/// `host` is nullptr for a name that resolved to no host; such an endpoint
/// is never reached (Host::send fails not_found).  A host pointer stays
/// valid for its World's lifetime: hosts are never removed.
struct Endpoint {
  Host* host = nullptr;
  std::uint16_t port = 0;

  Address address() const;
  std::string to_string() const;  ///< "host:port", "?:port" when unresolved
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// A delivered datagram, named the way a real one is: fixed-width endpoint
/// references and 16-bit ports, no strings.  The destination is the
/// receiving host, so the packet does not carry it.  The payload is a
/// shared immutable view: every copy of a Packet (duplication, broadcast
/// fan-out) shares the same bytes.
///
/// A handler may read `src` (its name(), to address a reply) and `network`
/// (its name()) from the receiving host's shard, even though the sender
/// lives on another shard: a host's and a network's name are immutable
/// after creation and neither is ever removed from its World, so those
/// reads race with nothing.  Mutable node state (up(), NICs, RNG) behind
/// `src` belongs to the sender's shard and must not be touched.
struct Packet {
  Host* src = nullptr;           ///< sending host
  std::uint16_t src_port = 0;    ///< sender's port, for replies
  std::uint16_t dst_port = 0;    ///< port on the receiving host
  Network* network = nullptr;    ///< network it arrived on (last hop for routed sends)
  Payload payload;
};

using PacketHandler = std::function<void(const Packet&)>;

/// One attachment point of a node (host or router) to a network.
class Nic {
 public:
  Nic(Node* node, class Network* network) : node_(node), network_(network) {}
  /// The attached node; host() narrows and returns nullptr for routers.
  Node* node() const { return node_; }
  Host* host() const;
  Network* network() const { return network_; }
  bool up() const { return up_; }
  void set_up(bool up);  ///< bumps the world's route epoch on change
  /// Earliest time the egress side of this NIC is free to start serializing
  /// the next packet (models bandwidth sharing between flows — on hosts and
  /// on interior fat-tree / WAN gateway links alike).  Written only on the
  /// owning shard's thread; stored relaxed-atomic so the watchtower sampler
  /// can probe queue depth (next_free - now) cross-thread, like busy_ns().
  SimTime next_free() const { return next_free_.load(std::memory_order_relaxed); }
  void set_next_free(SimTime t) { next_free_.store(t, std::memory_order_relaxed); }

  /// Lifetime egress accounting, read cross-thread by the /topo dump.
  std::uint64_t tx_packets() const { return tx_packets_.load(std::memory_order_relaxed); }
  std::uint64_t tx_bytes() const { return tx_bytes_.load(std::memory_order_relaxed); }
  /// Virtual nanoseconds this NIC spent serializing (utilization numerator).
  std::uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }

  /// Serializes a `bytes`-long datagram onto this NIC's network, starting
  /// at `now` or when the NIC frees up, whichever is later: moves
  /// next_free() past it, accounts it, and returns its arrival time at the
  /// far end of the link.  Draws no randomness.  The one egress timing of
  /// every host send, broadcast and router hop.
  SimTime transmit(SimTime now, std::size_t bytes);

 private:
  Node* node_;
  Network* network_;
  bool up_ = true;
  std::atomic<std::uint64_t> tx_packets_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<SimTime> next_free_{0};
};

/// Aggregate traffic counters, kept per network and exposed by World for
/// the bench harnesses.  Fields are relaxed atomics because a network that
/// spans shards is incremented from several worker threads at once; every
/// field is a pure sum, so totals stay deterministic regardless of the
/// interleaving.
///
/// `digest` is the network's share of the replay oracle: the wrapping sum
/// of one hash per datagram fate met here, each bumping its counter above
/// (DESIGN.md §Seed/replay contract).  A sum is order-free, so the digest
/// is the same for every shard count.  World::replay_digest() adds them.
struct NetStats {
  std::atomic<std::uint64_t> packets_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> packets_delivered{0};
  std::atomic<std::uint64_t> drops_loss{0};      ///< random media loss
  std::atomic<std::uint64_t> drops_down{0};      ///< host/NIC/network down at delivery
  std::atomic<std::uint64_t> drops_unbound{0};   ///< no listener on the destination port
  std::atomic<std::uint64_t> drops_fault{0};     ///< fault injector (burst loss/partition)
  std::atomic<std::uint64_t> fault_duplicates{0};  ///< extra copies injected
  std::atomic<std::uint64_t> fault_corruptions{0}; ///< datagrams delivered mangled
  std::atomic<std::uint64_t> digest{0};          ///< sum of datagram fate hashes
};

/// A shared medium: an Ethernet segment, ATM fabric, point-to-point WAN
/// path, or an interior gateway link between zones (gateway links are plain
/// networks, so link_down fault actions and per-NIC contention apply to
/// them unchanged).
class Network {
 public:
  Network(std::string name, MediaModel model) : name_(std::move(name)), model_(model) {}

  const std::string& name() const { return name_; }
  const MediaModel& model() const { return model_; }
  bool up() const { return up_; }
  void set_up(bool up);  ///< bumps the world's route epoch on change
  /// Additional loss injected on top of the media baseline (for loss
  /// sweeps); total per-packet drop probability is baseline + extra.
  void set_extra_loss(double p) { extra_loss_ = p; }
  double total_loss() const { return model_.loss + extra_loss_; }

  const std::vector<Nic*>& nics() const { return nics_; }
  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }
  /// The zone this network belongs to (nullptr in flat worlds).
  Zone* zone() const { return zone_; }

  /// Attaches (or, with nullptr, removes) a fault injector consulted for
  /// every datagram on this network — see simnet/fault.hpp.  Ownership is
  /// shared so a FaultPlan can outlive or predecease the network safely.
  void set_fault(std::shared_ptr<FaultInjector> fault) { fault_ = std::move(fault); }
  FaultInjector* fault() const { return fault_.get(); }

 private:
  friend class World;
  friend class Zone;
  std::string name_;
  MediaModel model_;
  World* world_ = nullptr;
  Zone* zone_ = nullptr;
  bool up_ = true;
  double extra_loss_ = 0.0;
  std::vector<Nic*> nics_;
  std::shared_ptr<FaultInjector> fault_;
  NetStats stats_;
};

/// Options for a single send.
struct SendOptions {
  /// If set, try this network first even if a faster one is shared (direct
  /// candidates only; routed sends pick their own path).
  const Network* preferred_network = nullptr;
  /// Stamped into the delivered Packet's src_port so receivers can reply.
  std::uint16_t src_port = 0;
};

/// One hop of a resolved route: the transmitting attachment and the medium
/// it serializes onto.  hops[0].tx belongs to the source host; subsequent
/// hops' tx NICs belong to routers.
struct RouteHop {
  Nic* tx;
  Network* net;
};

/// A resolved multi-hop path between two hosts.  Routes are shared-owned:
/// packets in flight keep their route alive even if the cache entry is
/// invalidated mid-transfer.
struct Route {
  std::vector<RouteHop> hops;
  Host* dst = nullptr;
  SimDuration latency = 0;  ///< sum of hop propagation latencies
  std::size_t mtu = 0;      ///< min over hop MTUs
};

/// Common state of anything attached to networks: simulated machines
/// (Host) and interior forwarding elements (Router).  Every node belongs to
/// one *shard*: the engine its events run on; everything a node owns —
/// NICs, contention clocks, forwarding state — is touched only by its
/// shard's thread.
class Node {
 public:
  Node(World* world, std::string name, Rng rng, Engine* engine, std::size_t shard,
       bool is_router);
  virtual ~Node() = default;

  const std::string& name() const { return name_; }
  /// Rng::hash_name(name()), computed once: the replay digest's node key.
  std::uint64_t name_hash() const { return name_hash_; }
  bool up() const { return up_; }
  /// Taking a node down atomically clears nothing: host bindings survive so
  /// the host "reboots" with its services intact (§5.6's model), and a
  /// router comes back forwarding.  Bumps the route epoch so cached routes
  /// through a dead router re-resolve.
  void set_up(bool up);

  World* world() const { return world_; }
  /// The engine this node's events run on (its shard's engine).  Transport
  /// endpoints and services bound to a host must schedule their timers
  /// here, not on World::engine(), so they stay on their shard's thread.
  Engine& engine() const { return *engine_; }
  /// The engine's clock as a callable: what stamps the Logger and flight
  /// ring of every component bound to this node.
  std::function<std::int64_t()> clock() const {
    return [engine = engine_] { return engine->now(); };
  }
  /// Which shard this node was created on (0 in a single-shard World).
  std::size_t shard() const { return shard_; }
  /// The routing zone this node belongs to (nullptr in flat worlds).
  Zone* zone() const { return zone_; }
  bool is_router() const { return is_router_; }

  /// The NIC attaching this node to `network`, or nullptr.
  Nic* nic_on(const std::string& network);
  Nic* nic_on(const Network* network);
  const std::vector<std::unique_ptr<Nic>>& nics() const { return nics_; }

  Rng& rng() { return rng_; }

 protected:
  friend class World;
  friend class Zone;

  World* world_;
  std::string name_;
  std::uint64_t name_hash_;
  bool up_ = true;
  std::vector<std::unique_ptr<Nic>> nics_;
  Rng rng_;
  Engine* engine_;
  std::size_t shard_;
  Zone* zone_ = nullptr;
  bool is_router_;
};

/// An interior forwarding element: a top-of-rack switch, fat-tree spine, or
/// WAN border gateway.  Routers never bind ports or run protocol timers —
/// forwarding is modeled hop-by-hop on the virtual clock (serialize on the
/// egress NIC, propagate, hand to the next hop), so a router's cost is its
/// links' contention, not software.
class Router : public Node {
 public:
  Router(World* world, std::string name, Rng rng, Engine* engine, std::size_t shard)
      : Node(world, std::move(name), rng, engine, shard, /*is_router=*/true) {}
};

/// A simulated machine.  Hosts own their NICs and their port table.
class Host : public Node {
 public:
  Host(World* world, std::string name, Rng rng, Engine* engine, std::size_t shard);
  ~Host() override;

  /// This host's metrics registry: every component bound to the host
  /// registers here, and its watchtower and telemetry exporter read only
  /// this (a child of obs::MetricsRegistry::global(), which rolls every
  /// host up).  Components must not outlive their host.
  obs::MetricsRegistry& metrics();

  /// This host's flight recorder: every component bound to the host records
  /// here, stamped with the host's name and its engine's virtual clock, and
  /// the host's telemetry exporter ships it.  Empty until the first record.
  obs::FlightRecorder& flight() { return flight_; }

  /// The trace ring of this host's World: every component bound to the
  /// host records here.
  obs::Tracer& tracer() const;

  /// Registers a datagram handler on `port`.
  Result<void> bind(std::uint16_t port, PacketHandler handler);
  void unbind(std::uint16_t port);
  bool bound(std::uint16_t port) const { return ports_.count(port) > 0; }
  /// Picks an unused ephemeral port (49152+).
  std::uint16_t ephemeral_port();

  /// Sends one datagram to port `dst_port` of `dst`.  With a shared up
  /// network the fastest one wins (§5.3), honouring `preferred_network` when
  /// it is available — exactly the flat model.  With no shared network and
  /// a zoned topology, the datagram takes the resolved multi-hop route,
  /// paying serialize + propagation per hop and sharing every link it
  /// crosses.  Fails with
  ///   not_found         if `dst` is nullptr,
  ///   invalid_argument  if payload exceeds the chosen network's (or the
  ///                     route's bottleneck) MTU,
  ///   unreachable       if no path exists or the host is down.
  /// On success returns the first-hop network.  Loss is applied at delivery
  /// time; a lost packet still returns success here, as with UDP.  The
  /// transports' per-datagram path: no name lookup, no string.
  Result<Network*> send(Host* dst, std::uint16_t dst_port, Payload payload,
                        const SendOptions& opts = {});
  /// By name: resolves `dst.host` once and sends as above, returning the
  /// first-hop network's name.  An unknown name fails with not_found.
  Result<std::string> send(const Address& dst, Payload payload, const SendOptions& opts = {});

  /// Sends to every other up NIC on `network` (link-level broadcast, used
  /// by the experimental Ethernet multicast protocol of §6).  Receivers
  /// share one payload; no per-receiver copy is made.  Routers do not
  /// receive broadcasts.
  Result<void> broadcast(const std::string& network, std::uint16_t port, Payload payload,
                         std::uint16_t src_port = 0);

 private:
  friend class World;
  /// Hands `packet` to the handler bound on its dst_port, after re-checking
  /// that this host and its NIC on `packet.network` are still up.
  void deliver(const Packet& packet);
  /// The no-shared-network continuation of send(): resolve a route and
  /// launch the packet down it.
  Result<Network*> send_routed(Host* dst_host, std::uint16_t dst_port, Payload payload,
                               const SendOptions& opts);

  std::map<std::uint16_t, PacketHandler> ports_;
  std::uint16_t next_ephemeral_ = 49152;
  /// Resolved-route cache, keyed by destination host.  Entries carry the
  /// route epoch they were computed under; any topology change (link/NIC/
  /// router up-down, partition fault actions, new attachments) bumps the
  /// world epoch and lazily invalidates every cached route.
  struct CachedRoute {
    std::uint64_t epoch = 0;
    std::shared_ptr<const Route> route;  ///< nullptr = cached "no route"
  };
  std::map<const Host*, CachedRoute> route_cache_;  ///< never iterated
  std::atomic<obs::MetricsRegistry*> metrics_{nullptr};  ///< owned, created lazily
  obs::FlightRecorder flight_;
};

/// The whole simulated testbed: engines + hosts + routers + networks +
/// zones.
///
/// With `shards == 1` (the default) this is exactly the classic single
/// engine World.  With `shards > 1` the hosts are partitioned across N
/// private engines, each driven by its own worker thread, and the run
/// methods below execute a conservative windowed parallel simulation:
///
///   * The *lookahead* L is the minimum media latency over networks whose
///     attachments span more than one shard (never below one tick).  In a
///     zoned world with shard-by-zone placement those are exactly the
///     inter-zone gateway links, so L is the min gateway latency.  A packet
///     sent at time t cannot arrive on another shard before t + L.
///   * Each window starts at s = the earliest pending event anywhere and
///     ends at e = min(s + L, next control event, horizon).  Every shard
///     runs its own events with time in [s, e) in parallel, touching only
///     its own nodes' state.
///   * Cross-shard sends (and multi-hop forwards) during the window land in
///     per-(src,dst) shard mailboxes; at the window barrier the coordinator
///     drains them in deterministic order — sorted by (arrival time, source
///     shard, per-source-shard sequence) — onto the destination engines.
///     Arrival times are >= e by the lookahead argument, so no shard ever
///     receives an event in its past.
///
/// World-level orchestration (FaultPlan actions, scripted workloads) runs
/// on a dedicated *control engine* between windows on the coordinator
/// thread; its next event time bounds every window, so control actions are
/// totally ordered against shard events.  With shards == 1 the control
/// engine IS the one shard engine, preserving today's behavior bit for
/// bit.  See DESIGN.md §sharded-engine for the determinism contract and
/// §routing-zones for the topology model.
class World {
 public:
  /// "No route" distance (net_distance when two hosts cannot reach each
  /// other at all).
  static constexpr SimDuration kUnreachable = INT64_MAX;

  /// Per-run accounting for the windowed driver (bench + tests).
  struct RunStats {
    std::uint64_t windows = 0;            ///< barriers executed
    std::uint64_t cross_shard_packets = 0;///< deliveries/forwards via mailboxes
    /// Sum over windows of the *maximum* per-shard thread-CPU time spent in
    /// that window: the critical path of the parallel execution.  On a
    /// machine with >= N cores this is what the wall clock converges to.
    std::uint64_t critical_path_ns = 0;
    std::uint64_t busy_ns = 0;            ///< total thread-CPU time, all shards
  };

  explicit World(std::uint64_t seed = 1, std::size_t shards = 1);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// The first shard's engine.  With one shard (the default) this is the
  /// only engine and behaves exactly as World::engine always has; sharded
  /// setups should schedule per-host work on Host::engine() and
  /// world-level orchestration on control_engine().
  Engine& engine() { return *engines_[0]; }
  /// The engine world-level orchestration (FaultPlan, scripted workload)
  /// runs on.  Identical to engine() when shards == 1.
  Engine& control_engine() { return *ctrl_; }
  /// Engine for shard `i`.
  Engine& shard_engine(std::size_t i) { return *engines_[i]; }

  /// Virtual time as seen by the calling thread: a sharded worker reads its
  /// own engine's clock, the coordinator reads the control engine's.
  SimTime now() const;

  /// Runs the simulation up to and including time `t` (all engines end at
  /// exactly `t`).  Single shard: Engine::run_until.  Multi shard: the
  /// conservative window loop described above.
  void run_until(SimTime t);
  /// Runs until no *strong* events remain anywhere (Engine::run semantics
  /// lifted to all shards).  Returns the number of events executed.
  std::size_t run_all();

  /// The World's own flight recorder, for world-level events (FaultPlan
  /// actions): host "" ("*" in dumps), stamped with the control engine's
  /// clock.
  obs::FlightRecorder& flight() { return flight_; }
  /// The World ring and every host ring merged by timestamp (ties: the
  /// World ring first, then hosts in name order) — the whole postmortem of
  /// a run.
  std::vector<obs::FlightEvent> flight_timeline() const;

  /// This World's trace ring: every host's components and the World's own
  /// actions record here, so two Worlds alive at once keep their own
  /// traces.  It follows the process-wide trace switches and allocates
  /// nothing until the first record.
  obs::Tracer& tracer() { return tracer_; }

  /// Total events executed across all engines.
  std::uint64_t events_run() const;
  /// Datagrams sent but not yet delivered or dropped, across all shards
  /// and mailboxes.  Zero once a run drains.
  std::size_t in_flight() const;
  /// The replay oracle: the sum of every network's NetStats::digest, i.e.
  /// of one hash per datagram fate this World simulated.  Same seed, same
  /// digest, for any shard count.
  std::uint64_t replay_digest() const;
  /// The lookahead of the current topology (recomputed at each run call);
  /// Engine::kNever when no network crosses shards.
  SimTime lookahead() const { return lookahead_; }
  const RunStats& run_stats() const { return run_stats_; }

  /// Creates a network; names must be unique.
  Network& create_network(const std::string& name, MediaModel model);
  /// Creates a host on shard `shard`; names must be unique.  Host RNG
  /// streams fork from the first engine's RNG in creation order, so a given
  /// creation sequence yields identical per-host streams for every shard
  /// count.  Prefer Zone::create_host in zoned worlds — it places the host
  /// on its zone's shard so cross-shard traffic is cross-zone traffic.
  Host& create_host(const std::string& name, std::size_t shard = 0);
  /// Creates an interior forwarding node on shard `shard` (Zone::
  /// create_router places it on the zone's shard).  Routers draw their loss
  /// samples from an RNG forked in creation order, like hosts.
  Router& create_router(const std::string& name, std::size_t shard = 0);
  /// Attaches a host or router to a network with a fresh NIC.
  Nic& attach(Node& node, Network& network);
  Nic& attach(const std::string& host, const std::string& network);

  Host* host(const std::string& name);
  /// Interns `address`: its host resolved by name (nullptr when unknown).
  Endpoint endpoint(const Address& address) { return {host(address.host), address.port}; }
  Router* router(const std::string& name);
  Network* network(const std::string& name);

  const std::map<std::string, std::unique_ptr<Host>>& hosts() const { return hosts_; }
  const std::map<std::string, std::unique_ptr<Router>>& routers() const { return routers_; }

  // ---- routing zones (simnet/topo.hpp holds Zone and the builders) ----

  /// Creates a routing zone.  With `shard == kAutoShard`, a child zone
  /// inherits its parent's shard and a top-level zone is assigned round-
  /// robin across the world's shards — so "shard by zone" is the default
  /// placement and cross-shard traffic is cross-zone traffic.
  static constexpr std::size_t kAutoShard = static_cast<std::size_t>(-1);
  Zone& create_zone(const std::string& name, Zone* parent = nullptr,
                    std::size_t shard = kAutoShard);
  Zone* zone(const std::string& name);
  /// Top-level zones, in creation order (empty for flat worlds).
  const std::vector<Zone*>& top_zones() const { return top_zones_; }

  /// Resolves (and caches) the multi-hop route from `src` to `dst`: per-hop
  /// latency-shortest path over up links, hosts never forwarding, equal-
  /// cost ties broken by a deterministic per-(src,dst) hash so distinct
  /// pairs spread across parallel fabric planes.  Returns nullptr when no
  /// path exists (or `dst` is null or `src` itself).  Must be called from
  /// `src`'s shard thread (or the coordinator); the cache is per-host,
  /// keyed by the destination Host*, and lock-free.
  std::shared_ptr<const Route> resolve_route(Host& src, Host* dst);
  /// By destination name; an unknown name resolves to nullptr.
  std::shared_ptr<const Route> resolve_route(Host& src, const std::string& dst);

  /// Network distance between two hosts: 0 for the same host, the best
  /// shared-network latency for adjacent hosts (the flat model's answer),
  /// the resolved route's total latency otherwise, kUnreachable when no
  /// path exists.  Replica ranking (files/rcds/rm) runs on this.
  SimDuration net_distance(const std::string& a, const std::string& b);

  /// Monotonic topology-change counter: link/NIC/node up-down transitions,
  /// new attachments and partition fault actions bump it, lazily
  /// invalidating every cached route.
  std::uint64_t route_epoch() const { return route_epoch_.load(std::memory_order_relaxed); }
  void bump_route_epoch() { route_epoch_.fetch_add(1, std::memory_order_relaxed); }

  /// Human-readable dump of the zone tree with per-link utilization and
  /// up/down state — the console `topo` verb and the ops gateway's /topo
  /// endpoint serve this (implemented in topo.cpp).
  std::string describe_topology() const;
  /// Windowed variant: per-link utilization is computed from the watchtower
  /// history (`link.<net>.<node>.busy_ns` series) over the trailing
  /// `window`, so a healed link stops reading as hot forever.  NICs the
  /// store has no history for fall back to cumulative-since-boot.
  std::string describe_topology(const obs::SeriesStore* series, SimDuration window) const;

  /// All networks by name — the watchtower's link sampler walks this.
  const std::map<std::string, std::unique_ptr<Network>>& networks() const {
    return networks_;
  }

 private:
  friend class Host;
  friend class Zone;

  /// One datagram in flight: the packet, the host it is bound for and, on a
  /// routed path, the route and the index of the next hop to forward.  A
  /// Flight lives in the World's slab of the shard whose engine runs its next
  /// event, from the send that launches it until its fate (delivery or a
  /// drop); its events name it by (shard, slot), so a hop moves no byte of it.
  struct Flight {
    Packet packet;
    Host* target = nullptr;
    std::shared_ptr<const Route> route;  ///< nullptr on a direct send
    std::uint32_t hop = 0;               ///< next hop of `route` to forward

    /// The node whose shard runs this flight's next event: the forwarding
    /// node of hop `hop`, or the target once the route is spent.
    Node* next_node() const;
  };

  /// One shard's in-flight datagrams.  Flights are built in place in
  /// fixed-size chunks, so a Flight's address is stable while others come
  /// and go (a delivery's handler may send); released slots are reused
  /// through a free list threaded through the cells themselves, so a
  /// release never allocates.  Touched only by the shard's thread, or by
  /// the coordinator while the workers are parked.
  class FlightSlab {
   public:
    FlightSlab() = default;
    FlightSlab(const FlightSlab&) = delete;
    FlightSlab& operator=(const FlightSlab&) = delete;
    ~FlightSlab();

    /// Builds make()'s Flight directly in a free slot and returns the slot.
    template <typename Make>
    std::uint32_t acquire(Make&& make) {
      std::uint32_t slot = free_head_;
      if (slot != kNoSlot) {
        free_head_ = cell_at(slot).next_free;
      } else {
        if (used_ % kChunk == 0) chunks_.push_back(std::make_unique<Cell[]>(kChunk));
        slot = used_++;
      }
      Cell& cell = cell_at(slot);
      ::new (static_cast<void*>(cell.bytes)) Flight(make());
      cell.live = true;
      ++live_;
      return slot;
    }
    Flight& operator[](std::uint32_t slot) {
      return *std::launder(reinterpret_cast<Flight*>(cell_at(slot).bytes));
    }
    /// Destroys the slot's Flight (its payload and route references with
    /// it) and frees the slot.
    void release(std::uint32_t slot);
    std::size_t live() const { return live_; }

   private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;
    struct Cell {
      alignas(Flight) unsigned char bytes[sizeof(Flight)];
      std::uint32_t next_free = kNoSlot;  ///< free-list link while not live
      bool live = false;
    };
    static constexpr std::uint32_t kChunk = 256;
    Cell& cell_at(std::uint32_t slot) { return chunks_[slot / kChunk][slot % kChunk]; }

    std::vector<std::unique_ptr<Cell[]>> chunks_;
    std::uint32_t free_head_ = kNoSlot;  ///< most recently released slot
    std::uint32_t used_ = 0;  ///< slots ever handed out (the high-water mark)
    std::size_t live_ = 0;
  };

  /// One cross-shard flight parked until the window barrier, when
  /// drain_mailboxes moves it into its destination shard's slab.
  struct MailItem {
    SimTime arrival;
    std::uint64_t seq;  ///< per-source-shard, assigned at post time
    Flight flight;
  };

  /// Builds make()'s Flight in `lane`'s shard slab (the sender has just
  /// put it on the wire, arriving at `arrival`) and judges and posts it.
  template <typename Make>
  void launch(const Node& lane, SimTime arrival, Make&& make) {
    const std::size_t shard = lane.shard();
    judge_and_post(lane, shard, flights_[shard].acquire(std::forward<Make>(make)), arrival);
  }
  /// Runs the flight in `shard`'s slot `slot`, which `lane` (the sending
  /// host or forwarding router) is about to put on `packet.network`,
  /// through that network's fault injector, if any: a dropped flight is
  /// released, a duplicate is copied into a new slot and posted first, and
  /// the survivor is posted for `arrival`.
  void judge_and_post(const Node& lane, std::size_t shard, std::uint32_t slot,
                      SimTime arrival);
  /// Schedules the flight's next event (a forward or its delivery) at
  /// `when` on its next node's engine, directly when that node shares
  /// `shard` or the caller is the coordinator, otherwise through
  /// mail_[calling shard][its shard].
  void post_flight(std::size_t shard, std::uint32_t slot, SimTime when);
  void schedule_flight(Engine& engine, SimTime when, std::size_t shard, std::uint32_t slot);
  /// The one flight event: forwards the flight's next hop or delivers it.
  void land(std::size_t shard, std::uint32_t slot);
  /// Executes the flight's next hop: down checks, serialize on the egress
  /// NIC (sharing bandwidth with every other flow crossing it), loss, fault
  /// injection, then the next forward or the delivery.
  void forward_hop(std::size_t shard, std::uint32_t slot);
  /// Uncached shortest-path resolution behind resolve_route.
  std::shared_ptr<const Route> compute_route(Host& src, Host& dst);
  void drain_mailboxes();
  /// The shared window loop behind run_until/run_all.  Runs windows until
  /// the next event anywhere is past `horizon`; with
  /// `stop_when_strong_drained` also stops once no strong event remains on
  /// any engine (run_all mode).
  void run_windows(SimTime horizon, bool stop_when_strong_drained);
  SimTime compute_lookahead() const;
  void ensure_workers();
  void stop_workers();
  void worker_main(std::size_t shard);

  obs::Tracer tracer_;  ///< declared first: it outlives the hosts and engines
  std::vector<std::unique_ptr<Engine>> engines_;  ///< one per shard
  std::unique_ptr<Engine> ctrl_engine_;           ///< only when shards > 1
  Engine* ctrl_;                                  ///< == engines_[0] when shards == 1
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  std::map<std::string, std::unique_ptr<Router>> routers_;
  std::map<std::string, std::unique_ptr<Network>> networks_;
  std::vector<std::unique_ptr<Zone>> zones_;      ///< all zones, creation order
  std::map<std::string, Zone*> zones_by_name_;
  std::vector<Zone*> top_zones_;
  std::size_t next_top_zone_ = 0;                 ///< round-robin shard cursor
  std::atomic<std::uint64_t> route_epoch_{0};
  obs::FlightRecorder flight_;

  SimTime lookahead_ = Engine::kNever;
  RunStats run_stats_;

  // Worker pool + window barrier (multi-shard only; single shard never
  // starts threads).  All cross-thread state below is exchanged under mu_,
  // which is what gives every window a happens-before edge: whatever shard
  // i wrote during window k is visible to the coordinator at the barrier
  // and to every shard in window k+1.
  std::vector<FlightSlab> flights_;                       ///< one per shard
  std::vector<std::vector<std::vector<MailItem>>> mail_;  ///< [src][dst]
  std::vector<std::uint64_t> mail_seq_;                   ///< per src shard
  std::vector<std::uint64_t> shard_busy_ns_;              ///< this window, per shard
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t window_gen_ = 0;
  SimTime window_end_ = 0;
  std::size_t done_ = 0;
  bool quit_ = false;
  std::vector<std::thread> workers_;
};

inline obs::Tracer& Host::tracer() const { return world()->tracer(); }

}  // namespace snipe::simnet

template <>
struct std::hash<snipe::simnet::Endpoint> {
  std::size_t operator()(const snipe::simnet::Endpoint& e) const noexcept {
    // Pointer bits mixed with the port (Fibonacci hashing spreads the
    // allocator's aligned, clustered addresses across the buckets).
    auto bits = reinterpret_cast<std::uintptr_t>(e.host) ^ (std::uintptr_t{e.port} << 48);
    return static_cast<std::size_t>(bits * 0x9E3779B97F4A7C15ULL);
  }
};
