// Chaos suite: the transports and services under seeded adversarial fault
// plans (simnet/fault.hpp) — burst loss, duplication, reordering, byte
// corruption, partitions, and crash/restart schedules.
//
// Every scenario is a pure function of one 64-bit seed; the acceptance
// scenarios run each seed twice and require bit-identical replay digests
// (World::replay_digest(): one hash per datagram fate), which is the replay
// contract DESIGN.md §fault documents.  Set SNIPE_CHAOS_SEED to reproduce a
// failing CI run (see chaos_util.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "chaos_util.hpp"
#include "obs/alert.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "daemon/daemon.hpp"
#include "daemon/telemetry.hpp"
#include "daemon/watchtower.hpp"
#include "files/fileserver.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"
#include "simnet/topo.hpp"
#include "transport/ethmcast.hpp"
#include "transport/srudp.hpp"
#include "transport/stream.hpp"

namespace snipe {
namespace {

using simnet::Address;
using simnet::FaultPlan;
using simnet::FaultProfile;
using simnet::World;

constexpr int kSeeds = 5;  ///< distinct seeds per acceptance scenario

// ---- SRUDP gauntlet: the ISSUE acceptance scenario -------------------------
//
// Burst loss + duplication + reordering + a mid-transfer partition + a
// receiver crash/restart, all at once.  SRUDP promises exactly-once,
// in-order, intact delivery per peer pair as long as the sender's TTL
// (30 s) outlives the outage windows — so after the dust settles nothing
// may be lost, duplicated, reordered, expired, or skipped.

struct GauntletResult {
  bool intact = false;
  std::string why;
  std::uint64_t delivered = 0;
  std::uint64_t expired = 0;
  std::uint64_t skipped = 0;
  std::size_t pending = 0;
  std::uint64_t drops_fault = 0;      ///< scenario actually bit
  std::uint64_t fault_duplicates = 0;
  /// World::replay_digest().  "lan" is the only network, so this is also
  /// the data network's digest the flow-tracing on/off arms compare.
  std::uint64_t digest = 0;
};

/// `inspect`, when given, sees the World after the run, before teardown.
GauntletResult run_srudp_gauntlet(std::uint64_t seed,
                                  const std::function<void(World&)>& inspect = nullptr) {
  World world(seed);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  world.attach(world.create_host("a"), *world.network("lan"));
  world.attach(world.create_host("b"), *world.network("lan"));

  transport::SrudpEndpoint sender(*world.host("a"), 7000);
  transport::SrudpEndpoint receiver(*world.host("b"), 7000);
  chaos::DeliveryLedger ledger;
  receiver.set_handler([&ledger](const Address& src, Payload m) {
    ledger.on_deliver(src.host, std::move(m));
  });

  FaultPlan plan(world, seed * 0x9E3779B97F4A7C15ULL + 1);
  FaultProfile profile;
  profile.burst = {/*p_enter_bad=*/0.02, /*p_exit_bad=*/0.2,
                   /*loss_good=*/0.01, /*loss_bad=*/0.7};
  profile.duplicate = 0.05;
  profile.reorder = 0.1;
  profile.reorder_jitter = duration::milliseconds(2);
  plan.inject("lan", profile);
  plan.partition("lan", {{"a"}, {"b"}}, duration::milliseconds(300),
                 duration::milliseconds(600));
  plan.crash_host("b", duration::milliseconds(700), duration::milliseconds(900));

  Rng workload(seed ^ 0xC0FFEEULL);
  const Address dst{"b", 7000};
  for (std::uint32_t i = 0; i < 40; ++i) {
    std::size_t size = 1 + static_cast<std::size_t>(workload.next_below(20000));
    Bytes payload = chaos::chaos_payload(size, seed, i);
    ledger.expect_sent("a", payload);
    world.engine().schedule_at(
        duration::milliseconds(25) * i,
        [&sender, dst, payload = std::move(payload)]() mutable {
          sender.send(dst, std::move(payload));
        });
  }
  world.engine().run_until(duration::seconds(45));

  GauntletResult r;
  r.intact = ledger.intact(&r.why);
  r.delivered = receiver.stats().messages_delivered.v;
  r.expired = sender.stats().messages_expired.v;
  r.skipped = receiver.stats().messages_skipped.v;
  r.pending = sender.pending();
  r.drops_fault = world.network("lan")->stats().drops_fault;
  r.fault_duplicates = world.network("lan")->stats().fault_duplicates;
  r.digest = world.replay_digest();
  if (inspect) inspect(world);
  return r;
}

TEST(ChaosSrudp, GauntletExactlyOnceInOrderAcrossSeeds) {
  for (int i = 0; i < kSeeds; ++i) {
    std::uint64_t seed = chaos::chaos_seed() + static_cast<std::uint64_t>(i);
    GauntletResult first = run_srudp_gauntlet(seed);
    EXPECT_TRUE(first.intact) << "seed " << seed << ": " << first.why;
    EXPECT_EQ(first.delivered, 40u) << "seed " << seed;
    EXPECT_EQ(first.expired, 0u) << "seed " << seed;
    EXPECT_EQ(first.skipped, 0u) << "seed " << seed;
    EXPECT_EQ(first.pending, 0u) << "seed " << seed;
    // A vacuous pass (fault layer never fired) would be a test bug.
    EXPECT_GT(first.drops_fault, 0u) << "seed " << seed;
    EXPECT_GT(first.fault_duplicates, 0u) << "seed " << seed;
    // Replay: the same seed must reproduce the identical virtual-time run.
    GauntletResult replay = run_srudp_gauntlet(seed);
    EXPECT_EQ(first.digest, replay.digest) << "seed " << seed << " did not replay";
    chaos::log_digest("srudp_gauntlet", seed, first.digest);
  }
}

// ---- SRUDP under byte corruption -------------------------------------------
//
// The wire format carries no payload checksum (as in 1998), so flipped
// bytes can reach the application or even forge protocol state: a mangled
// STATUS can falsely ack a fragment, and a flipped msg_id on a
// single-fragment DATA mints a *new* message carrying a sent payload —
// which completes, delivers, and later duplicates or reorders against the
// original (dedup is per msg_id; a forged id defeats it).  What the
// protocol *does* promise under corruption is: no crashes (the decoders
// reject structurally-bad packets, including trailing bytes from a
// shrunken length field — see property_test.cpp), every delivered length
// is a length the sender actually sent (sizes are pairwise-distinct, so a
// structurally-mangled delivery would stand out), the damage stays
// bounded, and the run replays bit-for-bit from its seed.

struct CorruptionResult {
  std::vector<std::size_t> sent_sizes;
  std::vector<std::size_t> got_sizes;
  std::uint64_t digest = 0;
};

CorruptionResult run_srudp_corruption(std::uint64_t seed) {
  World world(seed);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  world.attach(world.create_host("a"), *world.network("lan"));
  world.attach(world.create_host("b"), *world.network("lan"));

  transport::SrudpConfig cfg;
  cfg.partial_ttl = duration::milliseconds(500);  // heal poisoned reassembly fast
  transport::SrudpEndpoint sender(*world.host("a"), 7000, cfg);
  transport::SrudpEndpoint receiver(*world.host("b"), 7000, cfg);
  CorruptionResult r;
  receiver.set_handler(
      [&r](const Address&, Payload m) { r.got_sizes.push_back(m.size()); });

  FaultPlan plan(world, seed + 77);
  FaultProfile profile;
  profile.burst = {0.01, 0.3, 0.01, 0.5};
  profile.reorder = 0.05;
  profile.corrupt = 0.05;
  profile.corrupt_max_bytes = 4;
  plan.inject("lan", profile);

  const Address dst{"b", 7000};
  for (std::uint32_t i = 0; i < 30; ++i) {
    std::size_t size = 100 + 531 * i;  // distinct; single- and multi-fragment
    Bytes payload = chaos::chaos_payload(size, seed, i);
    r.sent_sizes.push_back(size);
    world.engine().schedule_at(
        duration::milliseconds(30) * i,
        [&sender, dst, payload = std::move(payload)]() mutable {
          sender.send(dst, std::move(payload));
        });
  }
  world.engine().run_until(duration::seconds(60));
  r.digest = world.replay_digest();
  return r;
}

TEST(ChaosSrudp, CorruptionDamageIsBoundedAndReplaysExactly) {
  for (int i = 0; i < 3; ++i) {
    std::uint64_t seed = chaos::chaos_seed() + 100 + static_cast<std::uint64_t>(i);
    CorruptionResult first = run_srudp_corruption(seed);
    // Every delivered length is one the sender sent: the decoders and the
    // reassembly length check make a size-mutating corruption impossible
    // even though payload *bytes* may arrive mangled.
    std::set<std::size_t> sent(first.sent_sizes.begin(), first.sent_sizes.end());
    std::set<std::size_t> distinct_got;
    for (std::size_t size : first.got_sizes) {
      EXPECT_TRUE(sent.count(size)) << "seed " << seed << ": fabricated length " << size;
      distinct_got.insert(size);
    }
    // Bounded damage: nearly all of the workload gets through, and forged
    // msg_ids can only mint a couple of extra deliveries per run.
    EXPECT_GE(distinct_got.size(), 25u) << "seed " << seed;
    EXPECT_LE(first.got_sizes.size(), first.sent_sizes.size() + 2) << "seed " << seed;
    CorruptionResult replay = run_srudp_corruption(seed);
    EXPECT_EQ(first.digest, replay.digest) << "seed " << seed << " did not replay";
    EXPECT_EQ(first.got_sizes, replay.got_sizes) << "seed " << seed << " did not replay";
    chaos::log_digest("srudp_corruption", seed, first.digest);
  }
}

// ---- Byte stream under loss + duplication + reordering + partition ---------

TEST(ChaosStream, MessagesSurviveLossDupReorderAndPartition) {
  for (int s = 0; s < 3; ++s) {
    std::uint64_t seed = chaos::chaos_seed() + 200 + static_cast<std::uint64_t>(s);
    World world(seed);
    chaos::FlightWitness witness(world);
    world.create_network("lan", simnet::ethernet100());
    world.attach(world.create_host("a"), *world.network("lan"));
    world.attach(world.create_host("b"), *world.network("lan"));

    transport::StreamEndpoint client(*world.host("a"), 5000);
    transport::StreamEndpoint server(*world.host("b"), 5000);
    chaos::DeliveryLedger ledger;
    std::vector<std::shared_ptr<transport::StreamConnection>> accepted;
    server.listen([&](std::shared_ptr<transport::StreamConnection> conn) {
      conn->set_message_handler(
          [&ledger](Payload m) { ledger.on_deliver("a", m); });
      accepted.push_back(std::move(conn));
    });
    auto conn = client.connect({"b", 5000});

    FaultPlan plan(world, seed + 5);
    FaultProfile profile;
    profile.burst = {0.02, 0.25, 0.01, 0.6};
    profile.duplicate = 0.05;
    profile.reorder = 0.1;
    profile.reorder_jitter = duration::milliseconds(1);
    plan.inject("lan", profile);
    plan.partition("lan", {{"a"}, {"b"}}, duration::milliseconds(200),
                   duration::milliseconds(800));

    Rng workload(seed ^ 0xBEEFULL);
    for (std::uint32_t i = 0; i < 30; ++i) {
      std::size_t size = 1 + static_cast<std::size_t>(workload.next_below(50000));
      Bytes payload = chaos::chaos_payload(size, seed, i);
      ledger.expect_sent("a", payload);
      world.engine().schedule_at(duration::milliseconds(20) * i,
                                 [conn, payload = std::move(payload)] {
                                   conn->send_message(payload);
                                 });
    }
    world.engine().run_until(duration::seconds(30));

    std::string why;
    EXPECT_TRUE(ledger.intact(&why)) << "seed " << seed << ": " << why;
    EXPECT_EQ(conn->unacked_bytes(), 0u) << "seed " << seed;
  }
}

// ---- Ethernet multicast under burst loss + duplication + reordering --------
//
// NACK-driven repair recovers any message a receiver saw at least one
// fragment of.  Repairs can land after a newer message completed, so
// cross-message delivery order is not guaranteed under chaos — the
// invariant is exactly-once and intact per (sender, receiver), checked as
// multiset equality keyed by the pairwise-distinct sizes.

TEST(ChaosEthMcast, AllMembersReceiveEverythingExactlyOnce) {
  for (int s = 0; s < 3; ++s) {
    std::uint64_t seed = chaos::chaos_seed() + 300 + static_cast<std::uint64_t>(s);
    World world(seed);
    chaos::FlightWitness witness(world);
    world.create_network("seg", simnet::ethernet100());
    const char* names[] = {"m0", "m1", "m2", "m3"};
    for (const char* n : names)
      world.attach(world.create_host(n), *world.network("seg"));

    std::vector<std::unique_ptr<transport::EthMcastEndpoint>> members;
    std::vector<std::vector<Bytes>> got(4);
    for (int i = 0; i < 4; ++i) {
      members.push_back(std::make_unique<transport::EthMcastEndpoint>(
          *world.host(names[i]), "seg", "grp", 6000));
      members.back()->set_handler(
          [&got, i](const Address&, Payload m) { got[i].push_back(m.to_bytes()); });
    }

    FaultPlan plan(world, seed + 9);
    FaultProfile profile;
    profile.burst = {0.01, 0.5, 0.01, 0.5};
    profile.duplicate = 0.05;
    profile.reorder = 0.1;
    profile.reorder_jitter = duration::milliseconds(1);
    plan.inject("seg", profile);

    std::vector<Bytes> sent;
    for (std::uint32_t i = 0; i < 12; ++i) {
      // 2..5 fragments at the ~1.5 kB ethernet MTU; a whole message has to
      // dodge loss entirely to be missed, which these rates make negligible.
      Bytes payload = chaos::chaos_payload(3000 + 500 * i, seed, i);
      sent.push_back(payload);
      world.engine().schedule_at(duration::milliseconds(50) * i,
                                 [&m = *members[0], payload = std::move(payload)]() mutable {
                                   m.send(std::move(payload));
                                 });
    }
    world.engine().run_until(duration::seconds(20));

    auto by_size = [](const Bytes& a, const Bytes& b) { return a.size() < b.size(); };
    std::sort(sent.begin(), sent.end(), by_size);
    for (int i = 1; i < 4; ++i) {
      std::sort(got[i].begin(), got[i].end(), by_size);
      EXPECT_EQ(got[i], sent) << "seed " << seed << ": member " << names[i]
                              << " delivered " << got[i].size() << "/12";
    }
  }
}

// ---- RCDS replicas converge after a partition heals ------------------------

std::string canonical_record(const std::vector<rcds::Assertion>& assertions) {
  std::vector<std::string> lines;
  for (const auto& a : assertions)
    lines.push_back(a.name + "=" + a.value + "@" + std::to_string(a.timestamp) + "/" +
                    a.origin + (a.tombstone ? "!" : ""));
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (auto& l : lines) out += l + "\n";
  return out;
}

TEST(ChaosRcds, ReplicasConvergeAfterPartitionHeals) {
  std::uint64_t seed = chaos::chaos_seed() + 400;
  World world(seed);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"h1", "h2", "h3"})
    world.attach(world.create_host(n), *world.network("lan"));

  std::vector<std::unique_ptr<rcds::RcServer>> servers;
  for (const char* n : {"h1", "h2", "h3"})
    servers.push_back(std::make_unique<rcds::RcServer>(*world.host(n)));
  for (auto& s : servers) {
    std::vector<Address> peers;
    for (auto& o : servers)
      if (o != s) peers.push_back(o->address());
    s->set_peers(peers);
  }

  FaultPlan plan(world, seed + 13);
  plan.inject("lan", FaultProfile{});  // pure partition, no stochastic faults
  plan.partition("lan", {{"h1", "h2"}, {"h3"}}, duration::milliseconds(100),
                 duration::seconds(5));

  auto& engine = world.engine();
  // Before the partition: a write that replicates everywhere.
  engine.schedule_at(duration::milliseconds(50), [&] {
    servers[0]->apply("urn:x", {rcds::op_set("k", "v0")});
  });
  // During it: conflicting writes on both sides, plus one-sided writes.
  engine.schedule_at(duration::seconds(1), [&] {
    servers[0]->apply("urn:a", {rcds::op_set("owner", "s1")});
    servers[2]->apply("urn:b", {rcds::op_set("k", "minority")});
  });
  engine.schedule_at(duration::seconds(2), [&] {
    servers[2]->apply("urn:a", {rcds::op_set("owner", "s3")});
  });
  // Heal at 5 s; srudp's 30 s buffering redelivers the missed replication
  // pushes, and anti-entropy (10 s period) repairs anything beyond that.
  engine.run_until(duration::seconds(40));

  for (const char* uri : {"urn:x", "urn:a", "urn:b"}) {
    std::string want = canonical_record(servers[0]->get(uri));
    EXPECT_FALSE(want.empty()) << uri;
    for (std::size_t i = 1; i < servers.size(); ++i)
      EXPECT_EQ(canonical_record(servers[i]->get(uri)), want)
          << "replica " << i << " diverged on " << uri;
  }
  // The conflict resolved to the later write on every replica.
  for (auto& s : servers) {
    bool owner_is_s3 = false;
    for (const auto& a : s->get("urn:a"))
      if (a.name == "owner" && a.value == "s3" && !a.tombstone) owner_is_s3 = true;
    EXPECT_TRUE(owner_is_s3);
  }
}

// ---- RM failover across a host crash/restart schedule ----------------------

class NapTask final : public daemon::ManagedTask {
 public:
  NapTask(simnet::Engine& engine, const daemon::SpawnRequest& req,
          daemon::TaskHandle& handle)
      : engine_(engine), handle_(handle),
        delay_(req.args.empty() ? 0 : req.args[0]) {}
  void start() override {
    timer_ = engine_.schedule(delay_, [this] { handle_.exited(0); });
  }
  void kill() override { engine_.cancel(timer_); }

 private:
  simnet::Engine& engine_;
  daemon::TaskHandle& handle_;
  SimDuration delay_;
  simnet::TimerId timer_;
};

TEST(ChaosRm, CrashedHostAvoidedThenReadoptedAfterRestart) {
  std::uint64_t seed = chaos::chaos_seed() + 500;
  World world(seed);
  chaos::FlightWitness witness(world);
  Rng rng(seed + 1);
  world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"rc", "nodeA", "nodeB", "rmhost", "client"})
    world.attach(world.create_host(n), *world.network("lan"));
  rcds::RcServer rc(*world.host("rc"));

  auto nap_factory = [&world](const daemon::SpawnRequest& req, daemon::TaskHandle& h)
      -> Result<std::unique_ptr<daemon::ManagedTask>> {
    return std::unique_ptr<daemon::ManagedTask>(
        new NapTask(world.engine(), req, h));
  };
  daemon::DaemonConfig cfg;
  cfg.playground.require_signature = false;
  std::vector<Address> replicas{rc.address()};
  daemon::SnipeDaemon daemon_a(*world.host("nodeA"), replicas);
  daemon::SnipeDaemon daemon_b(*world.host("nodeB"), replicas);
  daemon_a.register_program("nap", nap_factory);
  daemon_b.register_program("nap", nap_factory);
  world.engine().run();

  auto principal = crypto::Principal::create("urn:snipe:rm:chaos", rng);
  rm::ResourceManager rm(*world.host("rmhost"), replicas, principal);
  rm.manage_host("nodeA", daemon_a.address());
  rm.manage_host("nodeB", daemon_b.address());
  world.engine().run_for(duration::seconds(5));  // pull facts + first polls
  ASSERT_EQ(rm.live_hosts(), 2u);

  // Crash nodeA at 6 s, reboot it at 20 s (bindings survive, §5.6's model).
  FaultPlan plan(world, seed + 2);
  plan.crash_host("nodeA", duration::seconds(6), duration::seconds(20));

  world.engine().run_until(duration::seconds(16));
  EXPECT_EQ(rm.live_hosts(), 1u) << "crashed host still considered live";

  // Allocations during the outage all land on the survivor.
  transport::RpcEndpoint client(*world.host("client"), 9400);
  for (int i = 0; i < 2; ++i) {
    daemon::SpawnRequest req;
    req.program = "nap";
    req.name = "job" + std::to_string(i);
    req.args = {duration::seconds(600)};
    bool replied = false;
    Result<Bytes> result(Errc::state_error, "unset");
    client.call(rm.address(), rm::tags::kAllocate, encode(req), [&](Result<Bytes> r) {
      replied = true;
      result = r;
    });
    while (!replied && world.engine().step()) {
    }
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
  EXPECT_EQ(daemon_b.running_tasks(), 2u);
  EXPECT_EQ(daemon_a.running_tasks(), 0u);

  // After the reboot the next polls resurrect it in the pool.
  world.engine().run_until(duration::seconds(30));
  EXPECT_EQ(rm.live_hosts(), 2u) << "rebooted host never readopted";
}

// ---- obs metrics agree with endpoint stats under induced expiry/skip -------

// ---- Striped file transfers under fire ------------------------------------
//
// The ISSUE acceptance scenario for the file service: a striped read whose
// serving replica is killed mid-stream must complete from the survivors —
// no wedge, content hash verified — with the stall detection and stripe
// re-issue visible in the flight recorder.

struct StripedChaosResult {
  bool read_ok = false;
  std::string why;
  Bytes content;        ///< what the read returned
  Bytes expected;       ///< what was written
  bool saw_stall = false;
  bool saw_reissue = false;
  std::uint64_t digest = 0;
};

StripedChaosResult run_striped_chaos(std::uint64_t seed, bool crash_server,
                                     bool lossy) {
  World world(seed);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"rc", "fs1", "fs2", "fs3", "app"})
    world.attach(world.create_host(n), *world.network("lan"));
  rcds::RcServer rc(*world.host("rc"));
  std::vector<Address> replicas{rc.address()};

  files::FileServerConfig scfg;
  scfg.replication_factor = 3;
  files::FileServer fs1(*world.host("fs1"), replicas, files::FileServer::kDefaultPort, scfg);
  files::FileServer fs2(*world.host("fs2"), replicas, files::FileServer::kDefaultPort, scfg);
  files::FileServer fs3(*world.host("fs3"), replicas, files::FileServer::kDefaultPort, scfg);
  fs1.set_peers({fs2.address(), fs3.address()});
  fs2.set_peers({fs3.address(), fs1.address()});
  fs3.set_peers({fs1.address(), fs2.address()});

  transport::RpcEndpoint rpc(*world.host("app"), 9200);
  files::FileClientConfig ccfg;
  ccfg.chunk = 8192;
  ccfg.stripes = 3;
  files::FileClient client(rpc, replicas, ccfg);

  StripedChaosResult out;
  // Big enough that a stripe outlives the srudp window a server can flush
  // before the scheduled kill: the crash must land mid-stream, with most
  // of the dead server's stripe still unsent.
  const std::size_t size = (crash_server ? 2'400'000 : 240'000) +
                           static_cast<std::size_t>(seed % 4096);
  out.expected = chaos::chaos_payload(size, seed, 1);
  Result<void> wrote(Errc::state_error, "unset");
  client.write(fs1.address(), "lifn://chaos/striped", out.expected,
               [&](Result<void> r) { wrote = r; });
  world.engine().run();
  if (!wrote.ok()) {
    out.why = "write failed: " + wrote.error().to_string();
    return out;
  }

  FaultPlan plan(world, seed * 0x9E3779B97F4A7C15ULL + 11);
  if (lossy) {
    FaultProfile profile;
    profile.burst = {/*p_enter_bad=*/0.02, /*p_exit_bad=*/0.2,
                     /*loss_good=*/0.01, /*loss_bad=*/0.5};
    profile.duplicate = 0.03;
    profile.reorder = 0.05;
    profile.reorder_jitter = duration::milliseconds(1);
    plan.inject("lan", profile);
    plan.partition("lan", {{"fs2"}, {"rc", "fs1", "fs3", "app"}},
                   world.engine().now() + duration::milliseconds(50),
                   world.engine().now() + duration::milliseconds(400));
  }
  if (crash_server) {
    // Kill a serving replica shortly after the stripes open — mid-stream,
    // before its chunk queue drains.
    world.engine().schedule(duration::milliseconds(2),
                            [&world] { world.host("fs1")->set_up(false); });
  }

  Result<Bytes> read(Errc::state_error, "unset");
  client.read("lifn://chaos/striped", [&](Result<Bytes> r) { read = r; });
  world.engine().run_for(duration::seconds(60));

  out.read_ok = read.ok();
  if (!read.ok())
    out.why = "read failed: " + read.error().to_string();
  else
    out.content = read.value();
  for (const auto& e : world.host("app")->flight().events()) {
    if (e.what == "stripe_stall") out.saw_stall = true;
    if (e.what == "stripe_reissue") out.saw_reissue = true;
  }
  out.digest = world.replay_digest();
  return out;
}

TEST(ChaosFiles, StripedReadCompletesAfterServingReplicaCrash) {
  for (int i = 0; i < kSeeds; ++i) {
    std::uint64_t seed = chaos::chaos_seed() + 600 + i;
    auto r = run_striped_chaos(seed, /*crash_server=*/true, /*lossy=*/false);
    ASSERT_TRUE(r.read_ok) << "seed " << seed << ": " << r.why;
    // read() verifies the registered SHA-256 before delivering, so equality
    // here is belt-and-braces on top of the hash check.
    EXPECT_EQ(r.content, r.expected) << "seed " << seed;
    // The recovery must be observable: the client stalled on the dead
    // replica's stripe and re-issued it.
    EXPECT_TRUE(r.saw_stall || r.saw_reissue) << "seed " << seed;
    EXPECT_TRUE(r.saw_reissue) << "seed " << seed;
    chaos::log_digest("files_striped_crash", seed, r.digest);
  }
}

TEST(ChaosFiles, StripedTransfersUnderLossReplayExactly) {
  // Loss, duplication, reordering and a brief partition of one replica:
  // the striped transfer must still complete intact, and the same seed
  // must reproduce the identical replay digest (the replay contract).
  for (int i = 0; i < kSeeds; ++i) {
    std::uint64_t seed = chaos::chaos_seed() + 650 + i;
    auto first = run_striped_chaos(seed, /*crash_server=*/false, /*lossy=*/true);
    ASSERT_TRUE(first.read_ok) << "seed " << seed << ": " << first.why;
    EXPECT_EQ(first.content, first.expected) << "seed " << seed;
    auto second = run_striped_chaos(seed, /*crash_server=*/false, /*lossy=*/true);
    ASSERT_TRUE(second.read_ok) << "seed " << seed << ": " << second.why;
    EXPECT_EQ(first.digest, second.digest) << "seed " << seed;
    chaos::log_digest("files_striped_lossy", seed, first.digest);
  }
}

TEST(ChaosFiles, WriterCrashMidSinkExpiresWithoutStoring) {
  // A writer host dies between kOpenSink and the final chunks; the sink's
  // idle TTL must reap the half-written buffer and nothing may be stored.
  std::uint64_t seed = chaos::chaos_seed() + 700;
  World world(seed);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"rc", "fs", "writer"})
    world.attach(world.create_host(n), *world.network("lan"));
  rcds::RcServer rc(*world.host("rc"));
  files::FileServer fs(*world.host("fs"), {rc.address()});

  transport::RpcEndpoint rpc(*world.host("writer"), 9200);
  files::FileClient client(rpc, {rc.address()});
  client.write(fs.address(), "lifn://chaos/halfwrite",
               chaos::chaos_payload(500'000, seed, 2), [](Result<void>) {});
  // Kill the writer almost immediately — the sink is open, most chunks
  // are still queued in the writer's srudp buffers.
  world.engine().schedule(duration::milliseconds(1),
                          [&world] { world.host("writer")->set_up(false); });
  world.engine().run_for(duration::seconds(200));

  EXPECT_EQ(fs.open_sinks(), 0u);
  EXPECT_FALSE(fs.has("lifn://chaos/halfwrite"));
  EXPECT_GE(fs.stats().sinks_expired + fs.stats().sinks_incomplete, 1u);
}

TEST(ChaosFiles, RepairConvergesThenGoesQuiet) {
  // Kill a replica long enough for repair to re-create the lost copy on a
  // fresh peer, then verify the daemons go quiet: once the replica count
  // meets the target, further ticks must push nothing (no repair churn).
  std::uint64_t seed = chaos::chaos_seed() + 710;
  World world(seed);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"rc", "fs1", "fs2", "fs3", "app"})
    world.attach(world.create_host(n), *world.network("lan"));
  rcds::RcServer rc(*world.host("rc"));
  std::vector<Address> replicas{rc.address()};
  files::FileServerConfig cfg;
  cfg.replication_factor = 2;
  files::FileServer fs1(*world.host("fs1"), replicas, files::FileServer::kDefaultPort, cfg);
  files::FileServer fs2(*world.host("fs2"), replicas, files::FileServer::kDefaultPort, cfg);
  files::FileServer fs3(*world.host("fs3"), replicas, files::FileServer::kDefaultPort, cfg);
  fs1.set_peers({fs2.address(), fs3.address()});
  fs2.set_peers({fs1.address(), fs3.address()});
  fs3.set_peers({fs1.address(), fs2.address()});

  transport::RpcEndpoint rpc(*world.host("app"), 9200);
  files::FileClient client(rpc, replicas);
  client.write(fs1.address(), "lifn://chaos/repair", chaos::chaos_payload(20'000, seed, 3),
               [](Result<void>) {});
  world.engine().run();
  ASSERT_TRUE(fs2.has("lifn://chaos/repair"));

  world.host("fs2")->set_up(false);
  world.engine().run_for(duration::seconds(60));
  // Repair re-created the lost copy on the spare peer.
  EXPECT_TRUE(fs3.has("lifn://chaos/repair"));
  EXPECT_GE(fs1.stats().repairs, 1u);

  // Converged: replica count is back at target, so the daemons go quiet.
  std::uint64_t repairs_at_convergence = fs1.stats().repairs + fs3.stats().repairs;
  std::uint64_t received_at_convergence =
      fs1.stats().replicas_received + fs3.stats().replicas_received;
  world.engine().run_for(duration::seconds(120));
  EXPECT_EQ(fs1.stats().repairs + fs3.stats().repairs, repairs_at_convergence);
  EXPECT_EQ(fs1.stats().replicas_received + fs3.stats().replicas_received,
            received_at_convergence);
}

TEST(ChaosObs, ExpiredAndSkippedCountsMatchMetricsRegistry) {
  double expired0 = chaos::metric_value("srudp.messages_expired");
  double skipped0 = chaos::metric_value("srudp.messages_skipped");

  World world(chaos::chaos_seed() + 600);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  world.attach(world.create_host("a"), *world.network("lan"));
  world.attach(world.create_host("b"), *world.network("lan"));
  transport::SrudpConfig cfg;
  cfg.msg_ttl = duration::milliseconds(300);
  cfg.hol_skip = duration::milliseconds(200);
  transport::SrudpEndpoint sender(*world.host("a"), 7000, cfg);
  transport::SrudpEndpoint receiver(*world.host("b"), 7000, cfg);
  std::vector<std::size_t> got;
  receiver.set_handler([&got](const Address&, Payload m) { got.push_back(m.size()); });

  // Message 1 dies against a crashed receiver; message 2, sent after the
  // reboot, is delivered only once the receiver skips the HOL gap.
  world.host("b")->set_up(false);
  sender.send({"b", 7000}, Bytes(100, 0x11));
  world.engine().run_for(duration::seconds(1));
  world.host("b")->set_up(true);
  sender.send({"b", 7000}, Bytes(200, 0x22));
  world.engine().run_for(duration::seconds(2));

  EXPECT_EQ(got, (std::vector<std::size_t>{200}));
  EXPECT_EQ(sender.stats().messages_expired.v, 1u);
  EXPECT_EQ(receiver.stats().messages_skipped.v, 1u);
  // The registry's fleet-wide counters moved by exactly the same amounts.
  EXPECT_EQ(chaos::metric_value("srudp.messages_expired") - expired0, 1.0);
  EXPECT_EQ(chaos::metric_value("srudp.messages_skipped") - skipped0, 1.0);
}

// ---- causal flow tracing: replay contract + linked cross-host flows --------
//
// No packet carries the trace context (each end derives it); only the
// *recording* of flow events is switched at runtime.  So a flow-on run and
// a flow-off run of the same seed must move exactly the same datagrams:
// same data-network replay digest, same deliveries.

/// Records flow events while in scope.  The switch is process-wide; each
/// World's own ring keeps the events.
struct FlowRecording {
  FlowRecording() { obs::Tracer::global().set_flow_enabled(true); }
  ~FlowRecording() { obs::Tracer::global().set_flow_enabled(false); }
};

TEST(ChaosTrace, FlowTracingPreservesReplayDigestsAndLinksRetransmits) {
  std::uint64_t seed = chaos::chaos_seed() + 700;

  auto base = run_srudp_gauntlet(seed);
  ASSERT_TRUE(base.intact) << base.why;

  const std::string path = "chaos_flow_trace.json";
  std::vector<obs::TraceEvent> events;
  bool written = false;
  GauntletResult traced;
  {
    FlowRecording flow;
    traced = run_srudp_gauntlet(seed, [&](World& world) {
      events = world.tracer().events();
      written = world.tracer().write_chrome_json(path);
    });
  }
  ASSERT_TRUE(traced.intact) << traced.why;

  // (a) bit-identical seeded replay digest with tracing enabled.
  EXPECT_EQ(base.digest, traced.digest);
  EXPECT_EQ(base.delivered, traced.delivered);

  // (b) at least one retransmitted message forms a linked cross-host flow:
  // flow_start srudp.send -> flow_step srudp.retransmit -> flow_end
  // srudp.deliver, all bound by one id.  The gauntlet's fault profile
  // guarantees retransmissions.
  std::set<std::uint64_t> retransmitted, started, delivered;
  for (const auto& e : events) {
    if (e.id == 0) continue;
    if (e.name == "srudp.retransmit") retransmitted.insert(e.id);
    if (e.phase == obs::TraceEvent::Phase::flow_start && e.name == "srudp.send")
      started.insert(e.id);
    if (e.phase == obs::TraceEvent::Phase::flow_end && e.name == "srudp.deliver")
      delivered.insert(e.id);
  }
  ASSERT_FALSE(retransmitted.empty()) << "fault profile produced no retransmits";
  bool linked = false;
  for (std::uint64_t id : retransmitted)
    if (started.count(id) && delivered.count(id)) {
      linked = true;
      break;
    }
  EXPECT_TRUE(linked) << "no retransmitted flow is linked send->retransmit->deliver";

  // The Chrome export carries the flow phases and hex ids viewers bind on.
  ASSERT_TRUE(written);
  std::ifstream in(path);
  std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x"), std::string::npos);
}

// ---- flight recorder: a dump after a faulted run shows what chaos did ------

TEST(ChaosFlight, DumpAfterFaultedRunContainsInjectedFaults) {
  auto r = run_srudp_gauntlet(chaos::chaos_seed() + 800);
  ASSERT_TRUE(r.intact) << r.why;

  // This is the timeline a tripped invariant (see FlightDumpOnFailure
  // below) would print: the fault plan's actions must be in it, alongside
  // the transport reactions they provoked.
  std::vector<obs::FlightEvent> timeline = chaos::FlightWitness::timeline();
  std::string dump = obs::format_flight_lines(timeline);
  EXPECT_NE(dump.find("[*] fault/partition.start"), std::string::npos) << dump;
  EXPECT_NE(dump.find("[*] fault/host.crash"), std::string::npos);
  EXPECT_NE(dump.find("[*] fault/host.restart"), std::string::npos);
  EXPECT_NE(dump.find("srudp/rto"), std::string::npos);

  // The sender's RTOs came from host "a"'s own ring, and each fault was
  // recorded once, in the World's ring.
  bool a_rto = false;
  std::size_t partition_starts = 0;
  for (const auto& e : timeline) {
    a_rto |= e.host == "a" && e.cat == "srudp" && e.what == "rto";
    if (e.cat == "fault") {
      EXPECT_EQ(e.host, "");
    }
    partition_starts += e.what == "partition.start" ? 1 : 0;
  }
  EXPECT_TRUE(a_rto) << dump;
  EXPECT_EQ(partition_starts, 1u) << dump;
  EXPECT_TRUE(std::is_sorted(timeline.begin(), timeline.end(),
                             [](const auto& x, const auto& y) { return x.ts < y.ts; }));
}

// ---- two Worlds on two threads: every ring belongs to its own World --------
//
// Host rings read their host's engine and the World ring its control
// engine, so two Worlds that reuse the same host names can run at once on
// two threads and each host still ends with exactly the entries a solo run
// of its World leaves.  The replay digest lives in each World's networks
// and the trace ring is the World's own, so each concurrent run also
// reaches its solo digest and records its solo trace, in record order.

struct RingWorld {
  explicit RingWorld(std::uint64_t seed) : world(seed), plan(world, seed + 1) {
    world.create_network("lan", simnet::ethernet100());
    world.attach(world.create_host("a"), *world.network("lan"));
    world.attach(world.create_host("b"), *world.network("lan"));
    tx = std::make_unique<transport::SrudpEndpoint>(*world.host("a"), 7000);
    rx = std::make_unique<transport::SrudpEndpoint>(*world.host("b"), 7000);
    rx->set_handler([](const Address&, Payload) {});
    FaultProfile profile;
    profile.burst = {0.02, 0.2, 0.01, 0.7};
    plan.inject("lan", profile);
    plan.partition("lan", {{"a"}, {"b"}}, duration::milliseconds(300),
                   duration::milliseconds(600));
    for (std::uint32_t i = 0; i < 40; ++i)
      world.engine().schedule_at(duration::milliseconds(25) * i, [this, seed, i] {
        tx->send(rx->address(), chaos::chaos_payload(4000, seed, i));
      });
  }

  void run() { world.engine().run_until(duration::seconds(5)); }

  /// The World's trace as "ts dur cat/name id args" lines, in record order.
  std::vector<std::string> trace() {
    std::vector<std::string> out;
    for (const auto& e : world.tracer().events()) {
      std::string line = std::to_string(e.ts) + " " + std::to_string(e.dur) + " " + e.cat +
                         "/" + e.name + " id=" + std::to_string(e.id);
      for (const auto& [k, v] : e.args) line += " " + k + "=" + v;
      out.push_back(std::move(line));
    }
    return out;
  }

  std::map<std::string, std::string> rings() {
    return {{"*", obs::format_flight_lines(world.flight().events())},
            {"a", obs::format_flight_lines(world.host("a")->flight().events())},
            {"b", obs::format_flight_lines(world.host("b")->flight().events())}};
  }

  World world;
  FaultPlan plan;
  std::unique_ptr<transport::SrudpEndpoint> tx, rx;
};

TEST(ChaosFlight, TwoWorldsOnTwoThreadsKeepTheirOwnRings) {
  const std::uint64_t seeds[2] = {chaos::chaos_seed() + 820, chaos::chaos_seed() + 821};
  FlowRecording flow;  // per-fragment flow events make each trace seed-specific
  std::map<std::string, std::string> solo[2];
  std::uint64_t solo_digest[2];
  std::vector<std::string> solo_trace[2];
  for (int i = 0; i < 2; ++i) {
    RingWorld w(seeds[i]);
    ASSERT_TRUE(w.world.tracer().enabled());
    w.run();
    solo[i] = w.rings();
    solo_digest[i] = w.world.replay_digest();
    solo_trace[i] = w.trace();
  }
  EXPECT_NE(solo[0]["*"].find("fault/partition.start"), std::string::npos);
  EXPECT_NE(solo[0]["a"].find("[a] srudp/rto"), std::string::npos) << solo[0]["a"];
  ASSERT_NE(solo[0], solo[1]);  // the seeds differ, so any mixing would show
  ASSERT_NE(solo_digest[0], solo_digest[1]);
  ASSERT_NE(solo_trace[0], solo_trace[1]);
  EXPECT_NE(std::find_if(solo_trace[0].begin(), solo_trace[0].end(),
                         [](const std::string& l) {
                           return l.find("fault/partition.start") != std::string::npos;
                         }),
            solo_trace[0].end());

  RingWorld w0(seeds[0]);
  RingWorld w1(seeds[1]);
  std::thread t0([&w0] { w0.run(); });
  std::thread t1([&w1] { w1.run(); });
  t0.join();
  t1.join();
  EXPECT_EQ(w0.rings(), solo[0]);
  EXPECT_EQ(w1.rings(), solo[1]);
  EXPECT_EQ(w0.world.replay_digest(), solo_digest[0]);
  EXPECT_EQ(w1.world.replay_digest(), solo_digest[1]);
  EXPECT_EQ(w0.world.tracer().dropped(), 0u);
  EXPECT_EQ(w1.world.tracer().dropped(), 0u);
  EXPECT_EQ(w0.trace(), solo_trace[0]);
  EXPECT_EQ(w1.trace(), solo_trace[1]);
}

// ---- fleet telemetry and watchtower: neither may perturb the data plane ----
//
// The telemetry plane's determinism contract (src/daemon/telemetry.hpp):
// beacons ride loss-free management links (no RNG draws — Rng::chance(0)
// consumes nothing) and never shift any other component's timestamps.  The
// watchtower's (DESIGN.md §watchtower): scrapes ride weak virtual-time
// timers, draw no randomness and send no packets; its series ride inside
// the exporter's beacons.  So a chaos run with exporters+collector
// attached must leave the *bit-identical* data-network ("lan") digest of a
// run without them, and switching the watchtower on (`watch_on` needs
// `exporter_on`; exporters run in both arms) must not move it either.  The
// data hosts share only the lossy lan — each reaches the collector over
// its own private management link, so beacons cannot even contend with
// data traffic for egress bandwidth after a route failover.

std::uint64_t run_mgmt_gauntlet(std::uint64_t seed, bool exporter_on, bool watch_on,
                                std::uint64_t* canary_fired = nullptr) {
  World world(seed);
  chaos::FlightWitness witness(world);
  world.create_network("lan", simnet::ethernet100());
  world.create_network("mgmt_a", simnet::ethernet100());
  world.create_network("mgmt_b", simnet::ethernet100());
  world.attach(world.create_host("a"), *world.network("lan"));
  world.attach(world.create_host("b"), *world.network("lan"));
  world.attach(world.create_host("coll"), *world.network("mgmt_a"));
  world.attach(*world.host("coll"), *world.network("mgmt_b"));
  world.attach(*world.host("a"), *world.network("mgmt_a"));
  world.attach(*world.host("b"), *world.network("mgmt_b"));

  transport::SrudpEndpoint sender(*world.host("a"), 7000);
  transport::SrudpEndpoint receiver(*world.host("b"), 7000);
  std::uint64_t delivered = 0;
  receiver.set_handler([&delivered](const Address&, Payload) { ++delivered; });

  FaultPlan plan(world, seed * 0x9E3779B97F4A7C15ULL + 5);
  FaultProfile profile;
  profile.burst = {0.02, 0.25, 0.02, 0.5};
  profile.duplicate = 0.03;
  profile.reorder = 0.05;
  plan.inject("lan", profile);

  std::unique_ptr<transport::RpcEndpoint> coll_rpc;
  std::unique_ptr<daemon::TelemetryCollector> collector;
  std::vector<std::unique_ptr<transport::RpcEndpoint>> exporter_rpcs;
  std::vector<std::unique_ptr<daemon::Watchtower>> towers;
  std::vector<std::unique_ptr<daemon::TelemetryExporter>> exporters;
  if (exporter_on) {
    coll_rpc = std::make_unique<transport::RpcEndpoint>(*world.host("coll"), 7300);
    daemon::CollectorWatchConfig watch_cfg;
    watch_cfg.enabled = watch_on;
    collector = std::make_unique<daemon::TelemetryCollector>(
        *coll_rpc, obs::FleetStore::Options{}, watch_cfg);
    for (const char* h : {"a", "b"}) {
      auto rpc = std::make_unique<transport::RpcEndpoint>(*world.host(h), 7400);
      const obs::SeriesStore* series = nullptr;
      if (watch_on) {
        // A canary rule guarantees the full pending -> firing transition
        // sequence actually happens inside the run, deterministically (it
        // keys on traffic every seeded run generates).
        obs::AlertRule canary;
        canary.name = "watch_canary";
        canary.metric = "srudp.fragments_sent";
        canary.threshold = 0;
        canary.for_ns = 1'000'000'000;
        towers.push_back(std::make_unique<daemon::Watchtower>(*world.host(h)));
        towers.back()->alerts().add_rule(canary);
        towers.back()->start();
        series = &towers.back()->series();
      }
      daemon::TelemetryConfig cfg;
      cfg.collectors = {coll_rpc->address()};
      cfg.period = duration::milliseconds(500);
      auto exporter = std::make_unique<daemon::TelemetryExporter>(*rpc, cfg, nullptr,
                                                                  nullptr, series);
      exporter->start();
      exporter_rpcs.push_back(std::move(rpc));
      exporters.push_back(std::move(exporter));
    }
  }

  const Address dst{"b", 7000};
  for (std::uint32_t i = 0; i < 25; ++i) {
    Bytes payload = chaos::chaos_payload(600 + 37 * i, seed, i);
    world.engine().schedule_at(
        duration::milliseconds(40) * i,
        [&sender, dst, payload = std::move(payload)]() mutable {
          sender.send(dst, std::move(payload));
        });
  }
  world.engine().run_until(duration::seconds(20));

  EXPECT_GT(delivered, 0u) << "seed " << seed;
  if (exporter_on) {
    // The plane must actually have run for the comparison to mean anything,
    // and the oracle sees its beacons — on the management networks.
    EXPECT_EQ(collector->store().host_count(), 2u) << "seed " << seed;
    EXPECT_GT(collector->beacons_received(), 0u) << "seed " << seed;
    EXPECT_NE(world.network("mgmt_a")->stats().digest, 0u) << "seed " << seed;
  }
  if (watch_on) {
    // Non-vacuity: towers scraped, the canary fired on both, and the
    // shipped series reached the collector through real beacons.
    for (const auto& t : towers) {
      EXPECT_GT(t->scrapes(), 10u) << "seed " << seed;
      EXPECT_GE(t->alerts().fired("watch_canary"), 1u) << "seed " << seed;
    }
    if (canary_fired != nullptr)
      *canary_fired = towers.front()->alerts().fired("watch_canary");
    EXPECT_NE(collector->watch(), nullptr);
    for (const char* h : {"a", "b"}) {
      const obs::SeriesStore* shipped = collector->store().host_series(h);
      EXPECT_NE(shipped, nullptr) << "seed " << seed;
      if (shipped != nullptr) {
        EXPECT_TRUE(shipped->has("srudp.fragments_sent")) << "seed " << seed;
      }
    }
  }
  return world.network("lan")->stats().digest;
}

TEST(ChaosTrace, TelemetryExporterPreservesReplayDigests) {
  for (int i = 0; i < 3; ++i) {
    std::uint64_t seed = chaos::chaos_seed() + 900 + static_cast<std::uint64_t>(i);
    std::uint64_t off = run_mgmt_gauntlet(seed, false, false);
    std::uint64_t on = run_mgmt_gauntlet(seed, true, false);
    EXPECT_EQ(off, on) << "seed " << seed << ": exporter perturbed the run";
    chaos::log_digest("fleet_gauntlet", seed, on);
  }
}

TEST(ChaosWatch, AlertEngineLeavesSeededDigestsUntouched) {
  for (int i = 0; i < 3; ++i) {
    std::uint64_t seed = chaos::chaos_seed() + 950 + static_cast<std::uint64_t>(i);
    std::uint64_t off = run_mgmt_gauntlet(seed, true, false);
    std::uint64_t fired = 0;
    std::uint64_t on = run_mgmt_gauntlet(seed, true, true, &fired);
    EXPECT_EQ(off, on) << "seed " << seed << ": watchtower perturbed the run";
    EXPECT_GE(fired, 1u) << "seed " << seed << ": canary never fired; vacuous";
    chaos::log_digest("watch_gauntlet", seed, on);
  }
}

/// When any chaos invariant trips, print the failing run's flight timeline
/// (its World ring and every host ring, merged by time) so the CI log shows
/// the fault and protocol events leading up to the failure.
class FlightDumpOnFailure : public ::testing::EmptyTestEventListener {
  void OnTestPartResult(const ::testing::TestPartResult& result) override {
    if (!result.failed()) return;
    std::fprintf(stderr, "\n=== flight timeline at failure ===\n%s\n",
                 obs::format_flight_lines(chaos::FlightWitness::timeline()).c_str());
  }
};

// ---- Sharded engine: shard-count invariance of seeded faulted runs ---------
//
// The conservative windowed driver promises that a seeded chaos run is a
// function of (seed) alone, not of the shard count: hosts fork their RNGs
// from the first engine in creation order, fault lanes derive per source
// host, and cross-shard mailboxes drain in (arrival, source shard, seq)
// order.  Four sites (worker + gateway each) on per-site LANs, gateways
// ringed over a WAN — the WAN is the only network that crosses shards, so
// its 18 ms latency is the lookahead.  SRUDP flows run within each site and
// around the gateway ring while burst loss, duplication, reordering, a WAN
// partition and a gateway crash all fire.  The replay digest and the
// delivery ledgers must come out bit-identical for 1, 2 and 4 shards.

struct ShardedResult {
  bool intact = false;
  std::string why;
  std::uint64_t delivered = 0;
  std::uint64_t drops_fault = 0;
  std::uint64_t cross_shard = 0;
  std::uint64_t windows = 0;
  std::uint64_t digest = 0;  ///< World::replay_digest()
};

ShardedResult run_sharded_sites(std::uint64_t seed, std::size_t shards,
                                bool watch = false) {
  constexpr std::size_t kSites = 4;
  ShardedResult r;
  World world(seed, shards);
  chaos::FlightWitness witness(world);
  for (std::size_t i = 0; i < kSites; ++i)
    world.create_network("lan" + std::to_string(i), simnet::ethernet100());
  world.create_network("wan", simnet::wan_t3());
  // Same creation order for every shard count — host RNG forks depend on
  // it — only the placement (site -> shard) varies.
  std::vector<simnet::Host*> workers, gateways;
  for (std::size_t i = 0; i < kSites; ++i) {
    std::size_t shard = i % shards;
    simnet::Host& w = world.create_host("w" + std::to_string(i), shard);
    simnet::Host& g = world.create_host("g" + std::to_string(i), shard);
    world.attach(w, *world.network("lan" + std::to_string(i)));
    world.attach(g, *world.network("lan" + std::to_string(i)));
    world.attach(g, *world.network("wan"));
    workers.push_back(&w);
    gateways.push_back(&g);
  }

  // SRUDP flows: w_i -> g_i within each site, g_i -> g_(i+1) around the
  // WAN ring.
  std::vector<std::unique_ptr<transport::SrudpEndpoint>> eps;
  // One ledger shared by all sites: gateways on different shards deliver
  // from different worker threads, so handler access takes a lock (the
  // per-sender vectors keep their per-flow order either way).
  chaos::DeliveryLedger ledger;
  std::mutex ledger_mu;
  for (std::size_t i = 0; i < kSites; ++i) {
    eps.push_back(std::make_unique<transport::SrudpEndpoint>(*workers[i], 7000));
    eps.push_back(std::make_unique<transport::SrudpEndpoint>(*gateways[i], 7000));
    transport::SrudpEndpoint& gw = *eps.back();
    gw.set_handler([&ledger, &ledger_mu](const Address& src, Payload m) {
      std::lock_guard<std::mutex> lock(ledger_mu);
      ledger.on_deliver(src.host, std::move(m));
    });
  }

  // Watchtowers on every worker (one per shard placement pattern): weak
  // scrape timers, own-NIC relaxed-atomic reads, alert evaluation, no
  // packets — so the digest must not move.
  std::vector<std::unique_ptr<daemon::Watchtower>> towers;
  if (watch) {
    for (simnet::Host* w : workers) {
      towers.push_back(std::make_unique<daemon::Watchtower>(*w));
      towers.back()->start();
    }
  }

  FaultPlan plan(world, seed * 0x9E3779B97F4A7C15ULL + 1);
  FaultProfile profile;
  profile.burst = {/*p_enter_bad=*/0.01, /*p_exit_bad=*/0.25,
                   /*loss_good=*/0.005, /*loss_bad=*/0.5};
  profile.duplicate = 0.03;
  profile.reorder = 0.05;
  profile.reorder_jitter = duration::milliseconds(2);
  plan.inject("wan", profile);
  plan.inject("lan1", profile);
  plan.partition("wan", {{"g0", "g1"}, {"g2", "g3"}}, duration::milliseconds(301),
                 duration::milliseconds(603));
  plan.crash_host("g3", duration::milliseconds(701), duration::milliseconds(903));

  // Workload on the hosts' own engines, staggered with coprime periods so
  // no two cross-shard flows collide on one destination at one instant.
  const std::uint32_t kMsgs = 10;
  for (std::size_t i = 0; i < kSites; ++i) {
    transport::SrudpEndpoint& wtx = *eps[2 * i];
    transport::SrudpEndpoint& gtx = *eps[2 * i + 1];
    const Address site_dst{"g" + std::to_string(i), 7000};
    const Address ring_dst{"g" + std::to_string((i + 1) % kSites), 7000};
    for (std::uint32_t j = 0; j < kMsgs; ++j) {
      std::uint32_t idx = static_cast<std::uint32_t>(i) * 100 + j;
      Bytes intra = chaos::chaos_payload(
          1 + (idx * 37u) % 3000, seed, idx);
      ledger.expect_sent("w" + std::to_string(i), intra);
      workers[i]->engine().schedule_at(
          duration::milliseconds(5 + 17 * static_cast<SimTime>(i)) +
              duration::milliseconds(23 + 2 * static_cast<SimTime>(i)) * j,
          [&wtx, site_dst, intra = std::move(intra)]() mutable {
            wtx.send(site_dst, std::move(intra));
          });
      Bytes ring = chaos::chaos_payload(
          1 + (idx * 53u) % 3000, seed, 10000 + idx);
      ledger.expect_sent("g" + std::to_string(i), ring);
      gateways[i]->engine().schedule_at(
          duration::milliseconds(11 + 13 * static_cast<SimTime>(i)) +
              duration::milliseconds(29 + 2 * static_cast<SimTime>(i)) * j,
          [&gtx, ring_dst, ring = std::move(ring)]() mutable {
            gtx.send(ring_dst, std::move(ring));
          });
    }
  }

  world.run_until(duration::seconds(25));

  r.intact = ledger.intact(&r.why);
  for (std::size_t i = 0; i < kSites; ++i)
    r.delivered += eps[2 * i + 1]->stats().messages_delivered.v;
  r.drops_fault = world.network("wan")->stats().drops_fault +
                  world.network("lan1")->stats().drops_fault;
  r.cross_shard = world.run_stats().cross_shard_packets;
  r.windows = world.run_stats().windows;
  if (watch) {
    for (const auto& t : towers) EXPECT_GT(t->scrapes(), 0u) << "seed " << seed;
  }
  // Watchtowers send no packets, so the whole-World digest is comparable
  // between watch-on and watch-off runs.
  r.digest = world.replay_digest();
  return r;
}

TEST(ChaosSharded, SeededFaultedRunDigestInvariantAcrossShardCounts) {
  for (int i = 0; i < 2; ++i) {
    std::uint64_t seed = chaos::chaos_seed() + 40 + static_cast<std::uint64_t>(i);
    ShardedResult one = run_sharded_sites(seed, 1);
    EXPECT_TRUE(one.intact) << "seed " << seed << ": " << one.why;
    EXPECT_EQ(one.delivered, 80u) << "seed " << seed;
    EXPECT_GT(one.drops_fault, 0u) << "seed " << seed << ": fault layer never bit";
    EXPECT_EQ(one.cross_shard, 0u);

    ShardedResult two = run_sharded_sites(seed, 2);
    EXPECT_TRUE(two.intact) << "seed " << seed << " shards=2: " << two.why;
    EXPECT_GT(two.cross_shard, 0u) << "no traffic crossed shards; test is vacuous";
    EXPECT_GT(two.windows, 0u);
    EXPECT_EQ(one.digest, two.digest) << "seed " << seed << ": shards=2 diverged";

    ShardedResult four = run_sharded_sites(seed, 4);
    EXPECT_TRUE(four.intact) << "seed " << seed << " shards=4: " << four.why;
    EXPECT_GT(four.cross_shard, 0u);
    EXPECT_EQ(one.digest, four.digest) << "seed " << seed << ": shards=4 diverged";

    // And the sharded run must replay bit-identically against itself.
    ShardedResult again = run_sharded_sites(seed, 2);
    EXPECT_EQ(two.digest, again.digest) << "seed " << seed << ": shards=2 did not replay";
    chaos::log_digest("sharded_sites", seed, one.digest);
  }
}

TEST(ChaosWatch, WatchtowerInvariantAcrossShardCounts) {
  // The ISSUE acceptance case: seeded faulted-run digests bit-identical
  // with the alert engine on vs off, and — with it on — across shard
  // counts 1, 2 and 4.  The towers' samplers read NIC atomics across shard
  // boundaries here, which must stay observational.
  std::uint64_t seed = chaos::chaos_seed() + 60;
  ShardedResult dark = run_sharded_sites(seed, 1, false);
  EXPECT_TRUE(dark.intact) << "seed " << seed << ": " << dark.why;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ShardedResult lit = run_sharded_sites(seed, shards, true);
    EXPECT_TRUE(lit.intact) << "seed " << seed << " shards=" << shards << ": "
                            << lit.why;
    EXPECT_EQ(dark.digest, lit.digest)
        << "seed " << seed << ": watchtower moved the digest at shards=" << shards;
  }
  chaos::log_digest("watch_sharded", seed, dark.digest);
}

// --------------------------------------------------------------------------
// Zoned-topology chaos: the ChaosSharded contract extended to multi-hop
// routing.  Four LAN zones (2 hosts each) ringed by WAN gateway links
// between the zones' gateway routers; hosts are placed shard-by-zone (the
// zone default), so with shards > 1 every WAN link crosses shards and the
// lookahead is the WAN latency.  Cross-zone SRUDP flows traverse 3-hop
// routes (lan -> wan -> lan) through routers; a gateway link_down forces a
// live reroute the long way around the ring (§6 route switching), a
// partition on another WAN link drops one flow end-to-end until it heals,
// and a receiving host crashes and reboots.  Digest must be a function of
// the seed alone — identical for 1, 2 and 4 shards.

ShardedResult run_zoned_sites(std::uint64_t seed, std::size_t shards) {
  constexpr std::size_t kSites = 4;
  ShardedResult r;
  World world(seed, shards);
  chaos::FlightWitness witness(world);
  // Same creation order for every shard count: zones round-robin over
  // however many shards exist, and every host/router RNG forks from the
  // first engine in creation order either way.
  std::vector<simnet::Zone*> sites;
  for (std::size_t i = 0; i < kSites; ++i)
    sites.push_back(&simnet::build_lan(world, "site" + std::to_string(i), 2,
                                       simnet::ethernet100()));
  for (std::size_t i = 0; i < kSites; ++i)
    simnet::connect_zones(*sites[i], *sites[(i + 1) % kSites], simnet::wan_t3(),
                          "wan" + std::to_string(i));

  auto host_name = [](std::size_t site, int h) {
    return "site" + std::to_string(site) + "/h" + std::to_string(h);
  };
  std::vector<simnet::Host*> senders, receivers;
  for (std::size_t i = 0; i < kSites; ++i) {
    senders.push_back(world.host(host_name(i, 0)));
    receivers.push_back(world.host(host_name(i, 1)));
  }

  std::vector<std::unique_ptr<transport::SrudpEndpoint>> eps;
  chaos::DeliveryLedger ledger;
  std::mutex ledger_mu;
  for (std::size_t i = 0; i < kSites; ++i) {
    eps.push_back(std::make_unique<transport::SrudpEndpoint>(*senders[i], 7000));
    eps.push_back(std::make_unique<transport::SrudpEndpoint>(*receivers[i], 7000));
    transport::SrudpEndpoint& rx = *eps.back();
    rx.set_handler([&ledger, &ledger_mu](const Address& src, Payload m) {
      std::lock_guard<std::mutex> lock(ledger_mu);
      ledger.on_deliver(src.host, std::move(m));
    });
  }

  FaultPlan plan(world, seed * 0x9E3779B97F4A7C15ULL + 2);
  FaultProfile profile;
  profile.burst = {/*p_enter_bad=*/0.01, /*p_exit_bad=*/0.25,
                   /*loss_good=*/0.005, /*loss_bad=*/0.5};
  profile.duplicate = 0.03;
  profile.reorder = 0.05;
  profile.reorder_jitter = duration::milliseconds(2);
  for (std::size_t i = 0; i < kSites; ++i)
    plan.inject("wan" + std::to_string(i), profile);
  // wan0 dies mid-run: the site0 -> site1 flow must re-resolve the long
  // way around the ring (3 WAN hops) and keep delivering, then snap back.
  // The window overlaps the send schedule so reroutes happen live.
  plan.link_down("wan0", duration::milliseconds(131), duration::milliseconds(397));
  // The site2 -> site3 flow is partitioned end-to-end on its WAN link for
  // a window; interior-hop judging must still honor the (src, dst) pair —
  // and the rerouted site0 flow transits wan2 unharmed meanwhile (its
  // endpoints sit in the injector's implicit extra group).
  plan.partition("wan2", {{host_name(2, 1)}, {host_name(3, 1)}},
                 duration::milliseconds(301), duration::milliseconds(603));
  // The partitioned flow's receiver also crashes across the heal, so the
  // backlog only lands after a reboot.
  plan.crash_host(host_name(3, 1), duration::milliseconds(471),
                  duration::milliseconds(703));

  // Workload: intra-site h0 -> h1 (adjacent, the flat fast path) and ring
  // h1 -> next site's h1 (3-hop routed path through both gateways),
  // staggered with coprime periods so no two cross-shard flows collide on
  // one destination at one instant.  Each host owns exactly one flow:
  // the ledger checks total per-sender order across all receivers.
  const std::uint32_t kMsgs = 10;
  for (std::size_t i = 0; i < kSites; ++i) {
    transport::SrudpEndpoint& htx = *eps[2 * i];
    transport::SrudpEndpoint& rtx = *eps[2 * i + 1];
    const Address near_dst{host_name(i, 1), 7000};
    const Address ring_dst{host_name((i + 1) % kSites, 1), 7000};
    for (std::uint32_t j = 0; j < kMsgs; ++j) {
      std::uint32_t idx = static_cast<std::uint32_t>(i) * 100 + j;
      Bytes intra = chaos::chaos_payload(1 + (idx * 37u) % 3000, seed, idx);
      ledger.expect_sent(host_name(i, 0), intra);
      senders[i]->engine().schedule_at(
          duration::milliseconds(5 + 17 * static_cast<SimTime>(i)) +
              duration::milliseconds(23 + 2 * static_cast<SimTime>(i)) * j,
          [&htx, near_dst, intra = std::move(intra)]() mutable {
            htx.send(near_dst, std::move(intra));
          });
      Bytes ring = chaos::chaos_payload(1 + (idx * 53u) % 3000, seed, 10000 + idx);
      ledger.expect_sent(host_name(i, 1), ring);
      receivers[i]->engine().schedule_at(
          duration::milliseconds(11 + 13 * static_cast<SimTime>(i)) +
              duration::milliseconds(29 + 2 * static_cast<SimTime>(i)) * j,
          [&rtx, ring_dst, ring = std::move(ring)]() mutable {
            rtx.send(ring_dst, std::move(ring));
          });
    }
  }

  world.run_until(duration::seconds(25));

  r.intact = ledger.intact(&r.why);
  for (std::size_t i = 0; i < kSites; ++i)
    r.delivered += eps[2 * i + 1]->stats().messages_delivered.v;
  for (std::size_t i = 0; i < kSites; ++i)
    r.drops_fault += world.network("wan" + std::to_string(i))->stats().drops_fault;
  r.cross_shard = world.run_stats().cross_shard_packets;
  r.windows = world.run_stats().windows;
  r.digest = world.replay_digest();
  return r;
}

TEST(ChaosTopo, ZonedFaultedRunDigestInvariantAcrossShardCounts) {
  std::uint64_t seed = chaos::chaos_seed() + 60;
  ShardedResult one = run_zoned_sites(seed, 1);
  EXPECT_TRUE(one.intact) << "seed " << seed << ": " << one.why;
  EXPECT_EQ(one.delivered, 80u) << "seed " << seed;
  EXPECT_GT(one.drops_fault, 0u) << "seed " << seed << ": fault layer never bit";
  EXPECT_EQ(one.cross_shard, 0u);

  ShardedResult two = run_zoned_sites(seed, 2);
  EXPECT_TRUE(two.intact) << "seed " << seed << " shards=2: " << two.why;
  EXPECT_GT(two.cross_shard, 0u) << "no traffic crossed shards; test is vacuous";
  EXPECT_GT(two.windows, 0u);
  EXPECT_EQ(one.digest, two.digest) << "seed " << seed << ": shards=2 diverged";

  ShardedResult four = run_zoned_sites(seed, 4);
  EXPECT_TRUE(four.intact) << "seed " << seed << " shards=4: " << four.why;
  EXPECT_GT(four.cross_shard, 0u);
  EXPECT_EQ(one.digest, four.digest) << "seed " << seed << ": shards=4 diverged";

  ShardedResult again = run_zoned_sites(seed, 2);
  EXPECT_EQ(two.digest, again.digest) << "seed " << seed << ": shards=2 did not replay";
  chaos::log_digest("topo_sites", seed, one.digest);
}

const bool kFlightListenerInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new FlightDumpOnFailure);
  return true;
}();

}  // namespace
}  // namespace snipe
