// T-scale: resource-management scalability (§2.2 vs §3.5).
//
// "PVM allows practical scalability to tens of hosts ... The PVM resource
//  manager uses centralized decision making.  This would be a bottleneck
//  for a very large virtual machine."  SNIPE's GRM was "modified to allow
//  for redundant resource management processes".
//
// The harness fires a burst of spawn requests at a pool of hosts managed
// by k resource managers (clients round-robin across them) and sweeps the
// host count.  Expected shape: a single RM's spawn throughput flattens as
// its request queue serializes (and its polling load grows with hosts),
// while 2–4 redundant RMs scale the burst throughput and keep placement
// balanced.  The k=0 column is the no-RM baseline (direct daemon spawns,
// perfect parallelism — PVM's "default built-in allocation" analogue).
#include <cmath>

#include "bench_util.hpp"
#include "daemon/daemon.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"

namespace {

using namespace snipe;
using namespace snipe::bench;

/// A native program that runs forever (load generator).
daemon::TaskFactory forever_factory(simnet::Engine&) {
  return [](const daemon::SpawnRequest&,
            daemon::TaskHandle&) -> Result<std::unique_ptr<daemon::ManagedTask>> {
    class Forever final : public daemon::ManagedTask {
     public:
      void start() override {}
      void kill() override {}
    };
    return std::unique_ptr<daemon::ManagedTask>(new Forever());
  };
}

void BM_RmScalability(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  const int rms = static_cast<int>(state.range(1));
  const int spawns = hosts * 4;  // burst size scales with the pool

  double spawn_rate = 0, spread = 0;

  for (auto _ : state) {
    simnet::World world(3000 + static_cast<std::uint64_t>(hosts * 10 + rms));
    auto& lan = world.create_network("lan", simnet::ethernet100());
    auto& rc_host = world.create_host("rc");
    world.attach(rc_host, lan);
    rcds::RcServer rc(rc_host);

    std::vector<std::unique_ptr<daemon::SnipeDaemon>> daemons;
    for (int i = 0; i < hosts; ++i) {
      auto& h = world.create_host("n" + std::to_string(i));
      world.attach(h, lan);
      daemon::DaemonConfig cfg;
      cfg.playground.require_signature = false;
      daemons.push_back(std::make_unique<daemon::SnipeDaemon>(
          h, std::vector<simnet::Address>{rc.address()}, daemon::SnipeDaemon::kDefaultPort,
          cfg));
      daemons.back()->register_program("forever", forever_factory(world.engine()));
    }
    world.engine().run();

    Rng rng(99);
    std::vector<std::unique_ptr<rm::ResourceManager>> managers;
    for (int i = 0; i < rms; ++i) {
      auto& h = world.create_host("rm" + std::to_string(i));
      world.attach(h, lan);
      auto principal =
          crypto::Principal::create("urn:snipe:rm:grm" + std::to_string(i), rng, 256);
      managers.push_back(std::make_unique<rm::ResourceManager>(
          h, std::vector<simnet::Address>{rc.address()}, principal));
      for (int j = 0; j < hosts; ++j)
        managers.back()->manage_host("n" + std::to_string(j), daemons[j]->address());
    }
    world.engine().run_for(duration::seconds(5));  // facts + first polls

    auto& client_host = world.create_host("client");
    world.attach(client_host, lan);
    transport::RpcEndpoint client(client_host, 9000);

    int completed = 0;
    SimTime start = world.now();
    daemon::SpawnRequest req;
    req.program = "forever";
    for (int s = 0; s < spawns; ++s) {
      if (rms == 0) {
        // Baseline: direct round-robin daemon spawns, no management at all.
        client.call(daemons[s % hosts]->address(), daemon::tags::kSpawn, encode(req),
                    [&](Result<Payload> r) { completed += r.ok(); });
      } else {
        client.call(managers[s % rms]->address(), rm::tags::kAllocate, encode(req),
                    [&](Result<Payload> r) { completed += r.ok(); });
      }
    }
    world.engine().run();
    double secs = to_seconds(world.now() - start);
    spawn_rate = completed / secs;

    // Placement balance: stddev of tasks per host (lower = better).
    double mean = static_cast<double>(completed) / hosts;
    double var = 0;
    for (auto& d : daemons) {
      double diff = static_cast<double>(d->running_tasks()) - mean;
      var += diff * diff;
    }
    spread = hosts > 0 ? std::sqrt(var / hosts) : 0;
    if (completed != spawns) state.SkipWithError("spawns failed");
  }

  state.counters["sim_spawns_per_s"] = spawn_rate;
  state.counters["placement_stddev"] = spread;
  state.SetLabel(std::to_string(rms) + " RM(s), " + std::to_string(hosts) + " hosts");
}

void args(benchmark::internal::Benchmark* b) {
  for (std::int64_t hosts : {8, 32, 64})
    for (std::int64_t rms : {0, 1, 2, 4})
      b->Args({hosts, rms});
}

BENCHMARK(BM_RmScalability)->Apply(args)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
