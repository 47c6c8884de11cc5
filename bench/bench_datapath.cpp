// Data-plane and event-engine throughput harness.
//
// Unlike the figure benches (which report *virtual-time* metrics), this one
// measures the simulator itself: wall-clock events/sec through the engine,
// simulated megabytes moved per wall-clock second through the transport
// stack, and heap allocations per delivered message.  It is the regression
// gate for the zero-copy data plane and the heap-based event queue — the
// ROADMAP north star says simulation should run "as fast as the hardware
// allows", and these counters are how we hold that line per PR.
//
// Wall-clock numbers are machine-dependent; compare runs on the same box.
#include <chrono>
#include <ctime>
#include <optional>

#include "bench_util.hpp"
#include "counting_alloc.hpp"
#include "daemon/telemetry.hpp"
#include "daemon/watchtower.hpp"
#include "simnet/topo.hpp"
#include "transport/rpc.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"

namespace {

using namespace snipe;
using namespace snipe::bench;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Engine microbenches.

/// Pure event churn: a self-rescheduling chain plus a fan of one-shot
/// timers, no payloads.  Measures the queue's push/pop cost.
void BM_EngineEvents(benchmark::State& state) {
  const std::size_t kEvents = 1 << 20;
  double wall = 0;
  for (auto _ : state) {
    simnet::Engine engine(1);
    // Half the events are a serial chain (always-next-event pattern of a
    // busy endpoint), half are scattered one-shots (timer fan-out).
    std::size_t fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < kEvents / 2) engine.schedule(duration::microseconds(1), chain);
    };
    engine.schedule(duration::microseconds(1), chain);
    Rng scatter(7);
    for (std::size_t i = 0; i < kEvents / 2; ++i) {
      engine.schedule(duration::microseconds(1 + scatter.next_below(1000)),
                      [&fired] { ++fired; });
    }
    auto start = Clock::now();
    engine.run();
    wall = seconds_since(start);
    benchmark::DoNotOptimize(fired);
  }
  state.counters["wall_events_per_sec"] = static_cast<double>(kEvents) / wall;
}
BENCHMARK(BM_EngineEvents)->Iterations(1)->Unit(benchmark::kMillisecond);

/// The retransmit-timer pattern: schedule a timer per packet, cancel it
/// when the ack arrives (i.e. almost immediately).  With a linear-scan
/// cancel this is quadratic in outstanding timers; with generation-checked
/// cancellation it is O(1).
void BM_EngineCancelChurn(benchmark::State& state) {
  const std::size_t kOutstanding = static_cast<std::size_t>(state.range(0));
  const std::size_t kRounds = 64;
  double wall = 0;
  for (auto _ : state) {
    simnet::Engine engine(1);
    std::vector<simnet::TimerId> timers(kOutstanding);
    auto start = Clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kOutstanding; ++i)
        timers[i] = engine.schedule(duration::seconds(10), [] {});
      for (std::size_t i = 0; i < kOutstanding; ++i) engine.cancel(timers[i]);
    }
    wall = seconds_since(start);
    engine.clear();
  }
  state.counters["wall_cancels_per_sec"] =
      static_cast<double>(kOutstanding * kRounds) / wall;
}
BENCHMARK(BM_EngineCancelChurn)->Arg(1000)->Arg(10000)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Transport data-plane benches.

struct DatapathResult {
  double wall_secs = 0;
  double sim_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  bool complete = false;
};

/// Moves `count` messages of `size` bytes over SRUDP on the given media and
/// reports wall time, engine events, and allocations for the whole run
/// (send through reassembled delivery).  With `header_plus_slice` each
/// message is built the way applications (and perfbench's p2p_msgs) build
/// them: a 16-byte header vector plus a slice of one shared buffer, so the
/// delivered message has two segments.
DatapathResult run_srudp(simnet::MediaModel media, std::size_t size, int count,
                         bool header_plus_slice = false) {
  PairWorld pair(media, 42);
  transport::SrudpEndpoint tx(pair.a(), 7001), rx(pair.b(), 7002);
  int delivered = 0;
  std::uint64_t delivered_bytes = 0;
  rx.set_handler([&](const simnet::Address&, const auto& m) {
    ++delivered;
    delivered_bytes += m.size();
  });
  DatapathResult r;
  Bytes message(size, 0x5a);
  auto shared = std::make_shared<const Bytes>(message);
  std::uint64_t alloc_start = heap_allocs();
  std::uint64_t alloc_bytes_start = heap_bytes();
  auto start = Clock::now();
  for (int i = 0; i < count; ++i) {
    if (!header_plus_slice) {
      tx.send(rx.address(), Bytes(message));
      continue;
    }
    ByteWriter header;
    header.u64(static_cast<std::uint64_t>(i));
    header.u64(size);
    Payload m(std::move(header).take());
    m.append(Payload(shared));
    tx.send(rx.address(), std::move(m));
  }
  pair.world.engine().run();
  r.wall_secs = seconds_since(start);
  r.allocs = heap_allocs() - alloc_start;
  r.alloc_bytes = heap_bytes() - alloc_bytes_start;
  r.events = pair.world.engine().events_run();
  r.sim_bytes = static_cast<double>(delivered_bytes);
  r.complete = delivered == count;
  return r;
}

/// Same transfer over the TCP-like stream.
DatapathResult run_stream(simnet::MediaModel media, std::size_t size, int count) {
  PairWorld pair(media, 42);
  transport::StreamEndpoint client(pair.a(), 8001), server(pair.b(), 8002);
  int delivered = 0;
  std::uint64_t delivered_bytes = 0;
  server.listen([&](std::shared_ptr<transport::StreamConnection> conn) {
    conn->set_message_handler([&, conn](const auto& m) {
      ++delivered;
      delivered_bytes += m.size();
    });
  });
  DatapathResult r;
  Bytes message(size, 0x5a);
  auto conn = client.connect(server.address());
  std::uint64_t alloc_start = heap_allocs();
  std::uint64_t alloc_bytes_start = heap_bytes();
  auto start = Clock::now();
  for (int i = 0; i < count; ++i) conn->send_message(Bytes(message));
  pair.world.engine().run();
  r.wall_secs = seconds_since(start);
  r.allocs = heap_allocs() - alloc_start;
  r.alloc_bytes = heap_bytes() - alloc_bytes_start;
  r.events = pair.world.engine().events_run();
  r.sim_bytes = static_cast<double>(delivered_bytes);
  r.complete = delivered == count;
  return r;
}

void report(benchmark::State& state, const DatapathResult& r, int count) {
  if (!r.complete) {
    state.SkipWithError("transfer incomplete");
    return;
  }
  state.counters["wall_events_per_sec"] = static_cast<double>(r.events) / r.wall_secs;
  state.counters["sim_MB_per_wall_sec"] = r.sim_bytes / r.wall_secs / 1e6;
  state.counters["allocs_per_msg"] = static_cast<double>(r.allocs) / count;
  state.counters["alloc_bytes_per_msg"] = static_cast<double>(r.alloc_bytes) / count;
  state.counters["events"] = static_cast<double>(r.events);
}

/// The acceptance-gate case: large messages over a fast medium, where
/// payload copies dominate.  range(0) = message bytes.
void BM_SrudpDatapath(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const int count = static_cast<int>(std::max<std::int64_t>(4, (64 << 20) / state.range(0)));
  DatapathResult r;
  for (auto _ : state) {
    reset_metrics();
    r = run_srudp(simnet::myrinet(), size, count);
    if (!r.complete) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  report(state, r, count);
  state.SetLabel("srudp/myrinet");
}
BENCHMARK(BM_SrudpDatapath)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1 << 20)
    ->Arg(4 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// The same transfer with header+slice messages (see run_srudp).  A
/// delivery path that flattened multi-segment messages would show here as
/// one allocation and range(0) bytes per message that BM_SrudpDatapath's
/// single-buffer messages never pay.
void BM_SrudpHeaderSlice(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const int count = static_cast<int>(std::max<std::int64_t>(4, (64 << 20) / state.range(0)));
  DatapathResult r;
  for (auto _ : state) {
    reset_metrics();
    r = run_srudp(simnet::myrinet(), size, count, /*header_plus_slice=*/true);
    if (!r.complete) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  report(state, r, count);
  state.SetLabel("srudp/myrinet header+slice");
}
BENCHMARK(BM_SrudpHeaderSlice)->Arg(4096)->Arg(1 << 20)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Exporter-overhead gate (fleet telemetry plane): the same SRUDP transfer,
/// but paced across ~6 virtual seconds so the telemetry exporter's default
/// 1 s cadence actually fires mid-run — a burst transfer drains the engine
/// in well under one beacon period and would measure nothing.  When
/// `exporter_on`, a TelemetryExporter on the sender beacons in-band to a
/// TelemetryCollector on the receiver over the same network the data rides.
/// scripts/bench.sh compares the on/off pair and flags the exporter if it
/// costs the data plane more than 2% — judged on the deterministic engine
/// event count, with wall-clock throughput printed as informational.
///
/// `watch_on` layers the watchtower on top of the exporter: a per-host
/// scrape/evaluate timer on the sender whose series ride the beacons, and
/// a FleetWatch timer on the collector.  bench.sh holds the watchtower to
/// the same 2% event budget, judged against the exporter-on run — the
/// increment the watchtower itself adds, not the whole telemetry plane.
DatapathResult run_srudp_paced(simnet::MediaModel media, std::size_t size, int count,
                               bool exporter_on, bool watch_on,
                               std::uint64_t* beacons) {
  PairWorld pair(media, 42);
  transport::SrudpEndpoint tx(pair.a(), 7001), rx(pair.b(), 7002);
  int delivered = 0;
  std::uint64_t delivered_bytes = 0;
  rx.set_handler([&](const simnet::Address&, const auto& m) {
    ++delivered;
    delivered_bytes += m.size();
  });
  std::optional<transport::RpcEndpoint> coll_rpc, exp_rpc;
  std::optional<daemon::Watchtower> tower;
  std::optional<daemon::TelemetryCollector> collector;
  std::optional<daemon::TelemetryExporter> exporter;
  if (exporter_on) {
    coll_rpc.emplace(pair.b(), 7200);
    daemon::CollectorWatchConfig watch_cfg;
    watch_cfg.enabled = watch_on;
    collector.emplace(*coll_rpc, obs::FleetStore::Options{}, watch_cfg);
    if (watch_on) {
      tower.emplace(pair.a());  // scrapes every Watchtower::kScrapePeriod = 1 s
      tower->start();
    }
    exp_rpc.emplace(pair.a(), 7100);
    daemon::TelemetryConfig cfg;
    cfg.collectors = {coll_rpc->address()};
    exporter.emplace(*exp_rpc, cfg, nullptr, nullptr,
                     watch_on ? &tower->series() : nullptr);
    exporter->start();  // default cadence: period = 1 s
  }
  DatapathResult r;
  Bytes message(size, 0x5a);
  std::uint64_t alloc_start = heap_allocs();
  std::uint64_t alloc_bytes_start = heap_bytes();
  auto start = Clock::now();
  // Bursts of 8 per tick: long enough wall-clock for a stable 2% compare,
  // while the tick spacing still stretches the run past several beacon
  // periods of virtual time.
  for (int i = 0; i < count; ++i) {
    pair.world.engine().schedule(duration::milliseconds(250 * (i / 8)),
                                 [&] { tx.send(rx.address(), Bytes(message)); });
  }
  pair.world.engine().run();
  r.wall_secs = seconds_since(start);
  r.allocs = heap_allocs() - alloc_start;
  r.alloc_bytes = heap_bytes() - alloc_bytes_start;
  r.events = pair.world.engine().events_run();
  r.sim_bytes = static_cast<double>(delivered_bytes);
  r.complete = delivered == count;
  if (beacons != nullptr)
    *beacons = collector.has_value() ? collector->beacons_received() : 0;
  return r;
}

void run_paced_case(benchmark::State& state, bool exporter_on, bool watch_on = false) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const int count = 192;  // 24 ticks 250 ms apart -> ~6 virtual seconds, ~5 beacons
  DatapathResult r;
  std::uint64_t beacons = 0;
  for (auto _ : state) {
    reset_metrics();
    r = run_srudp_paced(simnet::myrinet(), size, count, exporter_on, watch_on, &beacons);
    if (!r.complete) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  report(state, r, count);
  state.counters["beacons"] = static_cast<double>(beacons);
  state.SetLabel(watch_on      ? "srudp/myrinet/watchtower-on"
                 : exporter_on ? "srudp/myrinet/exporter-on"
                               : "srudp/myrinet/exporter-off");
}

void BM_SrudpPacedDatapath(benchmark::State& state) { run_paced_case(state, false); }
BENCHMARK(BM_SrudpPacedDatapath)->Arg(1 << 20)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SrudpPacedDatapathExporter(benchmark::State& state) { run_paced_case(state, true); }
BENCHMARK(BM_SrudpPacedDatapathExporter)
    ->Arg(1 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_SrudpPacedDatapathWatchtower(benchmark::State& state) {
  run_paced_case(state, true, true);
}
BENCHMARK(BM_SrudpPacedDatapathWatchtower)
    ->Arg(1 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_StreamDatapath(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const int count = static_cast<int>(std::max<std::int64_t>(4, (32 << 20) / state.range(0)));
  DatapathResult r;
  for (auto _ : state) {
    reset_metrics();
    r = run_stream(simnet::myrinet(), size, count);
    if (!r.complete) {
      state.SkipWithError("transfer incomplete");
      return;
    }
  }
  report(state, r, count);
  state.SetLabel("stream/myrinet");
}
BENCHMARK(BM_StreamDatapath)
    ->Arg(65536)
    ->Arg(1 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Routed datagrams: simnet's forwarding path alone, no transport on top.

/// Two fat-tree pods (2 racks x 2 hosts, 2 spines each) joined by a gateway
/// link; every round, each podA host sends one range(0)-byte datagram to
/// each podB host, and every datagram crosses seven hops (rack, uplink,
/// core, gateway, core, uplink, rack).  A warm-up round first fills the
/// route caches and the engine slab, so the measured rounds count only the
/// per-packet path.  Counters:
///   ns_per_hop      wall time / hops transmitted
///   allocs_per_hop  operator new calls / hops transmitted; a hop event that
///                   outgrows EventFn's inline buffer costs one here.
void BM_RoutedDatagram(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  constexpr int kRounds = 2000;
  double wall = 0;
  std::uint64_t hops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  for (auto _ : state) {
    simnet::World world(5);
    simnet::FatTreeOptions opt;
    simnet::Zone& pod_a = simnet::build_fat_tree(world, "podA", opt);
    simnet::Zone& pod_b = simnet::build_fat_tree(world, "podB", opt);
    simnet::connect_zones(pod_a, pod_b, opt.uplink_media, "gateway");
    delivered = 0;
    std::vector<simnet::Address> dsts;
    for (simnet::Host* h : pod_b.hosts()) {
      h->bind(9, [&delivered](const simnet::Packet&) { ++delivered; }).value();
      dsts.push_back(simnet::Address{h->name(), 9});
    }
    const Payload datagram(Bytes(size, 0x5a));
    auto send_round = [&] {
      for (simnet::Host* h : pod_a.hosts())
        for (const simnet::Address& dst : dsts)
          benchmark::DoNotOptimize(h->send(dst, datagram).value());
      world.run_all();
    };
    auto hops_sent = [&world] {
      std::uint64_t n = 0;
      for (const auto& [name, net] : world.networks()) n += net->stats().packets_sent;
      return n;
    };
    send_round();  // warm-up
    const std::uint64_t hops0 = hops_sent();
    const std::uint64_t delivered0 = delivered;
    const std::uint64_t alloc_start = heap_allocs();
    auto start = Clock::now();
    for (int r = 0; r < kRounds; ++r) send_round();
    wall = seconds_since(start);
    allocs = heap_allocs() - alloc_start;
    hops = hops_sent() - hops0;
    delivered -= delivered0;
    sent = static_cast<std::uint64_t>(kRounds) * pod_a.hosts().size() * dsts.size();
  }
  if (hops == 0 || delivered == 0) {
    state.SkipWithError("no datagram crossed the fabric");
    return;
  }
  state.counters["ns_per_hop"] = wall * 1e9 / static_cast<double>(hops);
  state.counters["allocs_per_hop"] = static_cast<double>(allocs) / static_cast<double>(hops);
  state.counters["hops_per_datagram"] = static_cast<double>(hops) / static_cast<double>(sent);
  state.counters["delivered_frac"] = static_cast<double>(delivered) / static_cast<double>(sent);
}
BENCHMARK(BM_RoutedDatagram)->Arg(64)->Arg(1024)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sharded-world sweep: the conservative-window parallel engine.

/// Thread-CPU time of the calling thread; the single-shard critical path.
std::uint64_t bench_thread_cpu_ns() {
#if defined(__linux__)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
#endif
  return 0;
}

/// Eight sites — worker + gateway on a per-site LAN, gateways ringed over
/// an 18 ms WAN (the lookahead) — partitioned across range(0) shards.  The
/// workload mirrors BM_EngineEvents (half self-rescheduling chain, half
/// pre-scheduled scattered one-shots, ~1M events total, identical for
/// every shard count) with a sparse data plane on top: every 256th chain
/// step sends an intra-site datagram, every 4096th crosses the WAN.
///
/// Two throughput counters, both over the same event total:
///   wall_events_per_sec      events / wall seconds.  On a box with fewer
///                            cores than shards this measures core
///                            contention, not the engine.
///   critpath_events_per_sec  events / critical path, where the critical
///                            path sums each window's slowest shard
///                            (thread-CPU time).  This is what the wall
///                            clock converges to given >= `shards` cores,
///                            and the honest parallelism metric either way.
void BM_ShardedWorld(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSites = 8;
  constexpr std::size_t kChainSteps = 60000;  // per site
  constexpr std::size_t kScatter = 480000;    // pre-scheduled one-shots, total
  double wall = 0;
  double critpath_secs = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross = 0;
  for (auto _ : state) {
    simnet::World world(11, shards);
    auto& wan = world.create_network("wan", simnet::wan_t3());
    std::vector<simnet::Host*> workers, gateways;
    for (std::size_t i = 0; i < kSites; ++i) {
      auto& lan = world.create_network("lan" + std::to_string(i), simnet::ethernet100());
      auto& w = world.create_host("w" + std::to_string(i), i % shards);
      auto& g = world.create_host("g" + std::to_string(i), i % shards);
      world.attach(w, lan);
      world.attach(g, lan);
      world.attach(g, wan);
      w.bind(9, [](const simnet::Packet&) {}).value();
      g.bind(9, [](const simnet::Packet&) {}).value();
      workers.push_back(&w);
      gateways.push_back(&g);
    }
    for (std::size_t i = 0; i < kSites; ++i) {
      simnet::Host* w = workers[i];
      simnet::Host* g = gateways[i];
      const simnet::Address site_dst{"g" + std::to_string(i), 9};
      const simnet::Address ring_dst{"g" + std::to_string((i + 1) % kSites), 9};
      // Staggered odd-microsecond periods: sites tick at incommensurate
      // times, so the event total is shard-count-invariant by construction.
      const SimDuration period = duration::microseconds(59 + 2 * static_cast<SimTime>(i));
      auto count = std::make_shared<std::size_t>(0);
      auto step = std::make_shared<std::function<void()>>();
      *step = [w, g, site_dst, ring_dst, period, count, step] {
        std::size_t n = ++*count;
        if (n % 256 == 0) w->send(site_dst, Bytes{1}).value();
        if (n % 4096 == 0) g->send(ring_dst, Bytes{1}).value();
        if (n < kChainSteps) w->engine().schedule(period, [step] { (*step)(); });
      };
      w->engine().schedule(period, [step] { (*step)(); });
    }
    // Scatter span well under the chain runtime: the heap starts deep and
    // drains early, matching BM_EngineEvents' depth profile so the 1-shard
    // number is directly comparable to the unsharded engine baseline.
    Rng scatter(7);
    const SimTime span = duration::milliseconds(50);
    for (std::size_t i = 0; i < kScatter; ++i) {
      workers[i % kSites]->engine().schedule_at(
          1 + static_cast<SimTime>(scatter.next_below(static_cast<std::uint64_t>(span))),
          [] {});
    }
    std::uint64_t cpu0 = bench_thread_cpu_ns();
    auto start = Clock::now();
    world.run_until(duration::seconds(5));
    wall = seconds_since(start);
    std::uint64_t cpu1 = bench_thread_cpu_ns();
    events = world.events_run();
    windows = world.run_stats().windows;
    cross = world.run_stats().cross_shard_packets;
    critpath_secs = shards == 1
                        ? static_cast<double>(cpu1 - cpu0) / 1e9
                        : static_cast<double>(world.run_stats().critical_path_ns) / 1e9;
  }
  state.counters["wall_events_per_sec"] = static_cast<double>(events) / wall;
  if (critpath_secs > 0)
    state.counters["critpath_events_per_sec"] = static_cast<double>(events) / critpath_secs;
  state.counters["events"] = static_cast<double>(events);
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["cross_shard_packets"] = static_cast<double>(cross);
}
BENCHMARK(BM_ShardedWorld)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
