// T-spawn: the cost of each spawn path (§5.5, §4).
//
// A spawn can go (a) directly to the host daemon, (b) through a broker/RM
// in active mode, or (c) via a passive reservation followed by a client-
// side spawn; security adds the RM signature + daemon verification.
// Expected shape: direct < active-RM < passive (one extra round trip).
// The authorization variants confirm §4's design point that security adds
// *no additional network round trips* to the active path — the RM signs
// what it was already sending (crypto CPU cost is outside the virtual
// clock, so sim_ms isolates the protocol cost).
#include "bench_util.hpp"
#include "daemon/daemon.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"

namespace {

using namespace snipe;
using namespace snipe::bench;

daemon::TaskFactory noop_factory() {
  return [](const daemon::SpawnRequest&,
            daemon::TaskHandle&) -> Result<std::unique_ptr<daemon::ManagedTask>> {
    class Noop final : public daemon::ManagedTask {
     public:
      void start() override {}
      void kill() override {}
    };
    return std::unique_ptr<daemon::ManagedTask>(new Noop());
  };
}

void BM_SpawnPath(benchmark::State& state) {
  const int path = static_cast<int>(state.range(0));  // 0 direct, 1 active, 2 passive
  const bool secure = state.range(1) != 0;
  const int spawns = 50;

  double per_spawn_ms = 0;

  for (auto _ : state) {
    reset_metrics();
    simnet::World world(8000);
    auto& lan = world.create_network("lan", simnet::ethernet100());
    for (const char* n : {"rc", "node", "rmhost", "client"})
      world.attach(world.create_host(n), lan);
    rcds::RcServer rc(*world.host("rc"));
    std::vector<simnet::Address> replicas = {rc.address()};

    Rng rng(8001);
    auto principal = crypto::Principal::create("urn:snipe:rm:grm", rng);
    daemon::DaemonConfig dcfg;
    dcfg.require_authorization = secure;
    dcfg.trust.trust(principal.uri, principal.keys.pub,
                     crypto::TrustPurpose::grant_resources);
    dcfg.playground.require_signature = false;
    dcfg.host_principal = std::make_shared<crypto::Principal>(
        crypto::Principal::create("snipe://node:7201/daemon", rng));
    daemon::SnipeDaemon d(*world.host("node"), replicas, daemon::SnipeDaemon::kDefaultPort,
                          dcfg);
    d.register_program("noop", noop_factory());
    rm::ResourceManager grm(*world.host("rmhost"), replicas, principal);
    grm.manage_host("node", d.address());
    world.engine().run_for(duration::seconds(5));
    if (path == 3) {
      // §4 session mode: one handshake, then sealed unsigned spawns.
      grm.establish_session("node", [](Result<void> r) { r.value(); });
      world.engine().run();
    }

    transport::RpcEndpoint client(*world.host("client"), 9000);
    int completed = 0;
    SimTime start = world.now();
    for (int s = 0; s < spawns; ++s) {
      daemon::SpawnRequest req;
      req.program = "noop";
      req.name = "t" + std::to_string(s);
      if (path == 0) {
        if (secure) req.authorization = grm.sign_authorization("noop", "node");
        client.call(d.address(), daemon::tags::kSpawn, encode(req),
                    [&](Result<Payload> r) { completed += r.ok(); });
      } else if (path == 1 || path == 3) {
        client.call(grm.address(), rm::tags::kAllocate, encode(req),
                    [&](Result<Payload> r) { completed += r.ok(); });
      } else {
        client.call(grm.address(), rm::tags::kReserve, encode(req),
                    [&, req](Result<Payload> r) mutable {
                      if (!r) return;
                      auto res = decode<rm::Reservation>(r.value());
                      if (!res) return;
                      req.authorization = res.value().authorization;
                      client.call(res.value().daemon, daemon::tags::kSpawn, encode(req),
                                  [&](Result<Payload> r2) { completed += r2.ok(); });
                    });
      }
      world.engine().run();  // serialize: measure per-operation latency
    }
    double secs = to_seconds(world.now() - start);
    per_spawn_ms = secs / spawns * 1e3;
    if (completed != spawns) state.SkipWithError("spawns failed");
  }

  state.counters["sim_ms_per_spawn"] = per_spawn_ms;
  embed_metrics(state, "rm.");
  embed_metrics(state, "daemon.");
  static const char* names[] = {"direct-daemon", "RM-active", "RM-passive",
                                "RM-active+session"};
  state.SetLabel(std::string(names[path]) + (secure && path != 3 ? " +auth" : ""));
}

void args(benchmark::internal::Benchmark* b) {
  for (std::int64_t path : {0, 1, 2})
    for (std::int64_t secure : {0, 1}) b->Args({path, secure});
  b->Args({3, 1});  // §4 session mode (always "secure")
}

BENCHMARK(BM_SpawnPath)->Apply(args)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
