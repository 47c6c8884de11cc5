// Integration tests for the per-host daemon and resource managers: spawn
// paths (native, mobile code, restore-from-checkpoint), environment and
// authorization enforcement, signals, state notification, load reporting,
// RM allocation, redundancy, and the §4 two-certificate authorization flow.
#include <gtest/gtest.h>

#include "daemon/daemon.hpp"
#include "playground/svmasm.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"

namespace snipe::daemon {
namespace {

using simnet::Address;
using simnet::World;

/// A trivial native program: runs for `args[0]` of virtual time then exits
/// with code args[1] (defaults: exit immediately with 0).
class SleeperTask final : public ManagedTask {
 public:
  SleeperTask(simnet::Engine& engine, const SpawnRequest& req, TaskHandle& handle)
      : engine_(engine), handle_(handle) {
    delay_ = req.args.size() > 0 ? req.args[0] : 0;
    code_ = req.args.size() > 1 ? req.args[1] : 0;
  }
  void start() override {
    timer_ = engine_.schedule(delay_, [this] { handle_.exited(code_); });
  }
  void kill() override { engine_.cancel(timer_); }

 private:
  simnet::Engine& engine_;
  TaskHandle& handle_;
  SimDuration delay_ = 0;
  std::int64_t code_ = 0;
  simnet::TimerId timer_;
};

TaskFactory sleeper_factory(simnet::Engine& engine) {
  return [&engine](const SpawnRequest& req,
                   TaskHandle& handle) -> Result<std::unique_ptr<ManagedTask>> {
    return std::unique_ptr<ManagedTask>(new SleeperTask(engine, req, handle));
  };
}

struct DaemonFixture : ::testing::Test {
  DaemonFixture() : world(81), rng(82) {
    world.create_network("lan", simnet::ethernet100());
    for (const char* n : {"rc", "fs", "nodeA", "nodeB", "client"})
      world.attach(world.create_host(n), *world.network("lan"));
    rc = std::make_unique<rcds::RcServer>(*world.host("rc"));
    fs = std::make_unique<files::FileServer>(*world.host("fs"), replicas());
    client_rpc = std::make_unique<transport::RpcEndpoint>(*world.host("client"), 9400);
  }

  std::vector<Address> replicas() { return {rc->address()}; }

  std::unique_ptr<SnipeDaemon> make_daemon(const std::string& host, DaemonConfig cfg = {}) {
    cfg.playground.require_signature = false;  // signing covered elsewhere
    auto d = std::make_unique<SnipeDaemon>(*world.host(host), replicas(),
                                           SnipeDaemon::kDefaultPort, cfg);
    d->register_program("sleeper", sleeper_factory(world.engine()));
    return d;
  }

  /// Steps the engine until `pred` holds (or nothing is left to run).
  /// Unlike engine().run(), this does not fast-forward through the
  /// lifetimes of freshly spawned tasks.
  template <typename Pred>
  void pump_until(Pred pred) {
    while (!pred() && world.engine().step()) {
    }
  }

  Result<SpawnReply> spawn_via_rpc(const Address& daemon, const SpawnRequest& req) {
    Result<SpawnReply> reply(Errc::state_error, "unset");
    bool replied = false;
    client_rpc->call(daemon, tags::kSpawn, encode(req), [&](Result<Bytes> r) {
      replied = true;
      if (!r)
        reply = r.error();
      else
        reply = decode<SpawnReply>(r.value());
    });
    pump_until([&] { return replied; });
    return reply;
  }

  /// RPC call helper that pumps only until the response arrives.
  Result<Bytes> call_and_wait(const Address& dst, std::uint32_t tag, Bytes body) {
    Result<Bytes> result(Errc::state_error, "unset");
    bool replied = false;
    client_rpc->call(dst, tag, std::move(body), [&](Result<Bytes> r) {
      replied = true;
      result = r;
    });
    pump_until([&] { return replied; });
    return result;
  }

  World world;
  Rng rng;
  std::unique_ptr<rcds::RcServer> rc;
  std::unique_ptr<files::FileServer> fs;
  std::unique_ptr<transport::RpcEndpoint> client_rpc;
};

TEST_F(DaemonFixture, PublishesHostMetadataOnStartup) {
  auto daemon = make_daemon("nodeA");
  world.engine().run();
  auto record = rc->get(daemon->host_url());
  ASSERT_FALSE(record.empty());
  bool has_daemon_url = false, has_arch = false, has_interface = false;
  for (const auto& a : record) {
    if (a.name == rcds::names::kHostDaemon && a.value == daemon->host_url())
      has_daemon_url = true;
    if (a.name == rcds::names::kHostArch) has_arch = true;
    if (a.name == rcds::names::kHostInterface) has_interface = true;
  }
  EXPECT_TRUE(has_daemon_url);
  EXPECT_TRUE(has_arch);
  EXPECT_TRUE(has_interface);
}

TEST_F(DaemonFixture, SpawnRunExitLifecycle) {
  auto daemon = make_daemon("nodeA");
  SpawnRequest req;
  req.program = "sleeper";
  req.name = "job1";
  req.args = {duration::seconds(1), 7};
  auto reply = spawn_via_rpc(daemon->address(), req);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().urn, "urn:snipe:proc:job1");
  EXPECT_EQ(reply.value().host, "nodeA");
  EXPECT_EQ(daemon->task_state("urn:snipe:proc:job1").value(), TaskState::running);
  EXPECT_EQ(daemon->running_tasks(), 1u);

  world.engine().run_for(duration::seconds(2));
  EXPECT_EQ(daemon->task_state("urn:snipe:proc:job1").value(), TaskState::exited);
  // Process metadata reflects the final state (§5.2.3).
  auto record = rc->get("urn:snipe:proc:job1");
  bool exited_in_rc = false;
  for (const auto& a : record)
    if (a.name == rcds::names::kProcState && a.value == "exited") exited_in_rc = true;
  EXPECT_TRUE(exited_in_rc);
}

TEST_F(DaemonFixture, SpawnerIsNotifiedOfStateChanges) {
  auto daemon = make_daemon("nodeA");
  std::vector<std::pair<std::string, TaskState>> events;
  client_rpc->on_notify(tags::kTaskEvent, [&](const Address&, const Payload& body) {
    PayloadCursor r(body);
    auto urn = r.str().value();
    auto state = static_cast<TaskState>(r.u8().value());
    events.emplace_back(urn, state);
  });
  SpawnRequest req;
  req.program = "sleeper";
  req.args = {duration::milliseconds(100), 0};
  spawn_via_rpc(daemon->address(), req).value();
  world.engine().run();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front().second, TaskState::running);
  EXPECT_EQ(events.back().second, TaskState::exited);
}

TEST_F(DaemonFixture, UnknownProgramRejected) {
  auto daemon = make_daemon("nodeA");
  SpawnRequest req;
  req.program = "no-such-thing";
  EXPECT_EQ(spawn_via_rpc(daemon->address(), req).code(), Errc::not_found);
  EXPECT_EQ(daemon->stats().spawns_rejected, 1u);
}

TEST_F(DaemonFixture, EnvironmentSpecEnforced) {
  DaemonConfig cfg;
  cfg.arch = "alpha-osf1";
  cfg.cpus = 2;
  auto daemon = make_daemon("nodeA", cfg);

  SpawnRequest wrong_arch;
  wrong_arch.program = "sleeper";
  wrong_arch.require_arch = "cray-t3e";
  EXPECT_EQ(spawn_via_rpc(daemon->address(), wrong_arch).code(), Errc::invalid_argument);

  SpawnRequest too_many_cpus;
  too_many_cpus.program = "sleeper";
  too_many_cpus.require_cpus = 8;
  EXPECT_EQ(spawn_via_rpc(daemon->address(), too_many_cpus).code(), Errc::invalid_argument);

  SpawnRequest fits;
  fits.program = "sleeper";
  fits.require_arch = "alpha-osf1";
  fits.require_cpus = 2;
  EXPECT_TRUE(spawn_via_rpc(daemon->address(), fits).ok());
}

TEST_F(DaemonFixture, AuthorizationRequiredAndVerified) {
  auto rm_principal = crypto::Principal::create("urn:snipe:rm:grm1", rng);
  DaemonConfig cfg;
  cfg.require_authorization = true;
  cfg.trust.trust(rm_principal.uri, rm_principal.keys.pub,
                  crypto::TrustPurpose::grant_resources);
  auto daemon = make_daemon("nodeA", cfg);

  SpawnRequest unsigned_req;
  unsigned_req.program = "sleeper";
  EXPECT_EQ(spawn_via_rpc(daemon->address(), unsigned_req).code(), Errc::permission_denied);

  // Authorization for the wrong host is rejected.
  SpawnRequest wrong_host = unsigned_req;
  wrong_host.authorization =
      encode(crypto::SignedStatement::make(rm_principal, authorization_payload("sleeper", "nodeB")));
  EXPECT_EQ(spawn_via_rpc(daemon->address(), wrong_host).code(), Errc::permission_denied);

  // Authorization from an untrusted signer is rejected.
  auto rogue = crypto::Principal::create("urn:snipe:rm:rogue", rng);
  SpawnRequest rogue_req = unsigned_req;
  rogue_req.authorization =
      encode(crypto::SignedStatement::make(rogue, authorization_payload("sleeper", "nodeA")));
  EXPECT_EQ(spawn_via_rpc(daemon->address(), rogue_req).code(), Errc::permission_denied);

  // The genuine article works.
  SpawnRequest good = unsigned_req;
  good.authorization =
      encode(crypto::SignedStatement::make(rm_principal, authorization_payload("sleeper", "nodeA")));
  EXPECT_TRUE(spawn_via_rpc(daemon->address(), good).ok());
}

TEST_F(DaemonFixture, SpawnsMobileCodeFromLifn) {
  auto daemon = make_daemon("nodeA");
  // Publish unsigned code (daemon playground configured w/o signatures).
  auto program = playground::assemble(R"(
    recv
    push 10
    mul
    emit
    push 0
    halt
  )");
  files::FileClient publisher(*client_rpc, replicas());
  publisher.write(fs->address(), "lifn://utk.edu/code/mult", encode(program.value()),
                  [](Result<void>) {});
  world.engine().run();

  SpawnRequest req;
  req.program = "lifn://utk.edu/code/mult";
  req.name = "vmjob";
  req.args = {4};  // initial input
  auto reply = spawn_via_rpc(daemon->address(), req);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  world.engine().run();
  EXPECT_EQ(daemon->task_state("urn:snipe:proc:vmjob").value(), TaskState::exited);
}

TEST_F(DaemonFixture, SignalsSuspendResumeKill) {
  auto daemon = make_daemon("nodeA");
  SpawnRequest req;
  req.program = "sleeper";
  req.name = "victim";
  req.args = {duration::seconds(100), 0};
  spawn_via_rpc(daemon->address(), req).value();

  auto send_signal = [&](TaskSignal sig) {
    ByteWriter w;
    w.str("urn:snipe:proc:victim");
    w.u8(static_cast<std::uint8_t>(sig));
    return call_and_wait(daemon->address(), tags::kSignal, std::move(w).take());
  };

  ASSERT_TRUE(send_signal(TaskSignal::suspend).ok());
  EXPECT_EQ(daemon->task_state("urn:snipe:proc:victim").value(), TaskState::suspended);
  ASSERT_TRUE(send_signal(TaskSignal::resume).ok());
  EXPECT_EQ(daemon->task_state("urn:snipe:proc:victim").value(), TaskState::running);
  ASSERT_TRUE(send_signal(TaskSignal::kill).ok());
  EXPECT_EQ(daemon->task_state("urn:snipe:proc:victim").value(), TaskState::killed);
}

TEST_F(DaemonFixture, CheckpointToFileServerAndRestoreElsewhere) {
  // The §5.6 migration primitive: checkpoint a running VM task on nodeA to
  // a file server, then spawn it on nodeB from the checkpoint.
  auto daemon_a = make_daemon("nodeA");
  auto daemon_b = make_daemon("nodeB");

  // A counter that emits its global counter forever; state = the counter.
  auto program = playground::assemble(R"(
    .globals 1
  loop:
    loadg 0
    push 1
    add
    storeg 0
    work 1000
    jmp loop
  )");
  files::FileClient publisher(*client_rpc, replicas());
  bool published = false;
  publisher.write(fs->address(), "lifn://utk.edu/code/counter", encode(program.value()),
                  [&](Result<void> r) { published = r.ok(); });
  pump_until([&] { return published; });
  ASSERT_TRUE(published);

  // NOTE: the counter loops forever, so the engine must never be fully
  // drained while it lives — everything below pumps bounded amounts.
  SpawnRequest req;
  req.program = "lifn://utk.edu/code/counter";
  req.name = "roamer";
  spawn_via_rpc(daemon_a->address(), req).value();
  world.engine().run_for(duration::milliseconds(50));  // let it count a bit

  // Checkpoint to the file server via the daemon RPC.
  ByteWriter w;
  w.str("urn:snipe:proc:roamer");
  w.str("lifn://utk.edu/ckpt/roamer/1");
  w.str(fs->address().host);
  w.u16(fs->address().port);
  Result<Bytes> ckpt = call_and_wait(daemon_a->address(), tags::kCheckpointTo,
                                     std::move(w).take());
  ASSERT_TRUE(ckpt.ok()) << ckpt.error().to_string();
  EXPECT_TRUE(fs->has("lifn://utk.edu/ckpt/roamer/1"));
  EXPECT_EQ(daemon_a->stats().checkpoints, 1u);

  // Kill the original and restore on nodeB.
  ByteWriter k;
  k.str("urn:snipe:proc:roamer");
  k.u8(static_cast<std::uint8_t>(TaskSignal::kill));
  call_and_wait(daemon_a->address(), tags::kSignal, std::move(k).take()).value();
  EXPECT_EQ(daemon_a->task_state("urn:snipe:proc:roamer").value(), TaskState::killed);

  SpawnRequest restore;
  restore.name = "roamer-2";
  restore.restore_lifn = "lifn://utk.edu/ckpt/roamer/1";
  auto reply = spawn_via_rpc(daemon_b->address(), restore);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  world.engine().run_for(duration::milliseconds(10));
  EXPECT_EQ(daemon_b->task_state("urn:snipe:proc:roamer-2").value(), TaskState::running);
}

TEST_F(DaemonFixture, TaskInfoAndListRpcs) {
  auto daemon = make_daemon("nodeA");
  SpawnRequest req;
  req.program = "sleeper";
  req.name = "queried";
  req.args = {duration::seconds(60), 0};
  spawn_via_rpc(daemon->address(), req).value();

  // kTaskInfo: state + comm port + exit code.
  ByteWriter q;
  q.str("urn:snipe:proc:queried");
  auto info = call_and_wait(daemon->address(), tags::kTaskInfo, std::move(q).take());
  ASSERT_TRUE(info.ok());
  ByteReader r(info.value());
  EXPECT_EQ(static_cast<TaskState>(r.u8().value()), TaskState::running);

  // Unknown URN.
  ByteWriter q2;
  q2.str("urn:snipe:proc:ghost");
  EXPECT_EQ(call_and_wait(daemon->address(), tags::kTaskInfo, std::move(q2).take()).code(),
            Errc::not_found);

  // kListTasks enumerates the local task table (§3.3).
  auto list = call_and_wait(daemon->address(), tags::kListTasks, {});
  ASSERT_TRUE(list.ok());
  ByteReader lr(list.value());
  ASSERT_EQ(lr.u32().value(), 1u);
  EXPECT_EQ(lr.str().value(), "urn:snipe:proc:queried");
}

TEST_F(DaemonFixture, LoadQueryAndRcLoadReport) {
  auto daemon = make_daemon("nodeA");
  for (int i = 0; i < 3; ++i) {
    SpawnRequest req;
    req.program = "sleeper";
    req.args = {duration::seconds(60), 0};
    spawn_via_rpc(daemon->address(), req).value();
  }
  EXPECT_EQ(daemon->running_tasks(), 3u);
  Result<Bytes> load = call_and_wait(daemon->address(), tags::kLoad, {});
  ASSERT_TRUE(load.ok());
  ByteReader r(load.value());
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.0);

  world.engine().run_for(duration::seconds(5));
  auto record = rc->get(daemon->host_url());
  std::string rc_load;
  for (const auto& a : record)
    if (a.name == rcds::names::kHostLoad) rc_load = a.value;
  EXPECT_EQ(rc_load.substr(0, 1), "3");
}

// ---- Resource managers ----

struct RmFixture : DaemonFixture {
  RmFixture() {
    rm_principal = crypto::Principal::create("urn:snipe:rm:grm1", rng);
    DaemonConfig cfg;
    cfg.require_authorization = true;
    cfg.trust.trust(rm_principal.uri, rm_principal.keys.pub,
                    crypto::TrustPurpose::grant_resources);
    daemon_a = make_daemon("nodeA", cfg);
    daemon_b = make_daemon("nodeB", cfg);
    world.engine().run();

    auto& rm_host = world.create_host("rmhost");
    world.attach(rm_host, *world.network("lan"));
    rm = std::make_unique<rm::ResourceManager>(rm_host, replicas(), rm_principal);
    rm->manage_host("nodeA", daemon_a->address());
    rm->manage_host("nodeB", daemon_b->address());
    world.engine().run_for(duration::seconds(5));  // pull facts + first polls
  }

  crypto::Principal rm_principal{};
  std::unique_ptr<SnipeDaemon> daemon_a, daemon_b;
  std::unique_ptr<rm::ResourceManager> rm;
};

TEST_F(RmFixture, ActiveModeAllocatesAndProxiesSpawn) {
  SpawnRequest req;
  req.program = "sleeper";
  req.args = {duration::seconds(60), 0};
  auto raw = call_and_wait(rm->address(), rm::tags::kAllocate, encode(req));
  Result<SpawnReply> reply =
      raw.ok() ? decode<SpawnReply>(raw.value()) : Result<SpawnReply>(raw.error());
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  // The daemon required an authorization; the RM attached one.
  EXPECT_EQ(daemon_a->running_tasks() + daemon_b->running_tasks(), 1u);
  EXPECT_EQ(rm->stats().allocations, 1u);
}

TEST_F(RmFixture, AllocationBalancesAcrossHosts) {
  for (int i = 0; i < 8; ++i) {
    SpawnRequest req;
    req.program = "sleeper";
    req.args = {duration::seconds(600), 0};
    call_and_wait(rm->address(), rm::tags::kAllocate, encode(req)).value();
  }
  // Least-loaded placement alternates between the two equal hosts.
  EXPECT_EQ(daemon_a->running_tasks(), 4u);
  EXPECT_EQ(daemon_b->running_tasks(), 4u);
}

TEST_F(RmFixture, DeadHostAvoidedAfterMissedPolls) {
  world.host("nodeA")->set_up(false);
  world.engine().run_for(duration::seconds(10));  // several poll periods
  EXPECT_EQ(rm->live_hosts(), 1u);
  for (int i = 0; i < 4; ++i) {
    SpawnRequest req;
    req.program = "sleeper";
    req.args = {duration::seconds(600), 0};
    call_and_wait(rm->address(), rm::tags::kAllocate, encode(req)).value();
  }
  EXPECT_EQ(daemon_b->running_tasks(), 4u);
}

TEST_F(RmFixture, PassiveModeReservationSpawnsViaClient) {
  SpawnRequest req;
  req.program = "sleeper";
  req.args = {duration::seconds(60), 0};
  auto raw = call_and_wait(rm->address(), rm::tags::kReserve, encode(req));
  Result<rm::Reservation> reservation =
      raw.ok() ? decode<rm::Reservation>(raw.value()) : Result<rm::Reservation>(raw.error());
  ASSERT_TRUE(reservation.ok());
  // Client performs the spawn itself, presenting the RM's authorization.
  req.authorization = reservation.value().authorization;
  auto reply = spawn_via_rpc(reservation.value().daemon, req);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(rm->stats().reservations, 1u);
}

TEST_F(RmFixture, RedundantRmsBothAllocate) {
  auto& rm2_host = world.create_host("rmhost2");
  world.attach(rm2_host, *world.network("lan"));
  auto rm2_principal = crypto::Principal::create("urn:snipe:rm:grm2", rng);
  // Daemons must trust the second RM too.
  // (In deployment both RM keys are in the daemons' trust stores; here we
  // reuse the first principal for rm2 to avoid daemon reconfiguration.)
  rm::ResourceManager rm2(rm2_host, replicas(), rm_principal);
  (void)rm2_principal;
  rm2.manage_host("nodeA", daemon_a->address());
  rm2.manage_host("nodeB", daemon_b->address());
  world.engine().run_for(duration::seconds(5));

  SpawnRequest req;
  req.program = "sleeper";
  req.args = {duration::seconds(60), 0};
  int ok = 0;
  for (auto* target : {rm.get(), &rm2})
    ok += call_and_wait(target->address(), rm::tags::kAllocate, encode(req)).ok();
  EXPECT_EQ(ok, 2);
}

TEST_F(RmFixture, SealedSpawnsOverAuthenticatedSession) {
  // §4: "the resource manager may instead maintain an authenticated
  // connection with each of its managed resources ... and transmit the
  // resource authorization without signatures."
  // The RmFixture daemons have no host keys; build a keyed daemon here.
  auto host_identity = std::make_shared<crypto::Principal>(
      crypto::Principal::create("snipe://nodeC:7201/daemon", rng));
  auto& node_c = world.create_host("nodeC");
  world.attach(node_c, *world.network("lan"));
  DaemonConfig cfg;
  cfg.require_authorization = true;
  cfg.host_principal = host_identity;
  cfg.trust.trust(rm_principal.uri, rm_principal.keys.pub,
                  crypto::TrustPurpose::grant_resources);
  auto daemon_c = make_daemon("nodeC", cfg);
  world.engine().run();
  rm->manage_host("nodeC", daemon_c->address());
  world.engine().run_for(duration::seconds(3));

  Result<void> established(Errc::state_error, "unset");
  rm->establish_session("nodeC", [&](Result<void> r) { established = r; });
  world.engine().run();
  ASSERT_TRUE(established.ok()) << established.error().to_string();
  ASSERT_TRUE(rm->has_session("nodeC"));
  EXPECT_EQ(daemon_c->active_sessions(), 1u);

  // Make nodeC the clear allocation choice by loading the other two hosts.
  for (int i = 0; i < 6; ++i) {
    SpawnRequest filler;
    filler.program = "sleeper";
    filler.args = {duration::seconds(600), 0};
    filler.authorization = encode(crypto::SignedStatement::make(
        rm_principal, authorization_payload("sleeper", i % 2 ? "nodeA" : "nodeB")));
    spawn_via_rpc(i % 2 ? daemon_a->address() : daemon_b->address(), filler).value();
  }
  world.engine().run_for(duration::seconds(3));  // let polls see the load

  SpawnRequest req;
  req.program = "sleeper";
  req.args = {duration::seconds(60), 0};
  auto raw = call_and_wait(rm->address(), rm::tags::kAllocate, encode(req));
  ASSERT_TRUE(raw.ok()) << raw.error().to_string();
  auto reply = decode<SpawnReply>(raw.value()).value();
  EXPECT_EQ(reply.host, "nodeC");
  EXPECT_GE(rm->stats().sealed_spawns, 1u);  // went unsigned over the session
  EXPECT_EQ(daemon_c->running_tasks(), 1u);
}

TEST_F(RmFixture, SealedSpawnWithoutSessionRejected) {
  // A sealed request from a peer without an established session (or a
  // replayed one) must be refused.
  auto host_identity = std::make_shared<crypto::Principal>(
      crypto::Principal::create("snipe://nodeD:7201/daemon", rng));
  auto& node_d = world.create_host("nodeD");
  world.attach(node_d, *world.network("lan"));
  DaemonConfig cfg;
  cfg.require_authorization = true;
  cfg.host_principal = host_identity;
  cfg.trust.trust(rm_principal.uri, rm_principal.keys.pub,
                  crypto::TrustPurpose::grant_resources);
  auto daemon_d = make_daemon("nodeD", cfg);
  world.engine().run();

  SpawnRequest req;
  req.program = "sleeper";
  auto r = call_and_wait(daemon_d->address(), tags::kSpawnSealed, encode(req));
  EXPECT_EQ(r.code(), Errc::permission_denied);

  // And a hello from an untrusted principal is refused too.
  auto rogue = crypto::Principal::create("urn:snipe:rm:rogue2", rng);
  auto initiated = crypto::Session::initiate(host_identity->keys.pub, rng).value();
  auto hello = crypto::SignedStatement::make(rogue, std::move(initiated.second));
  auto r2 = call_and_wait(daemon_d->address(), tags::kSessionHello, encode(hello));
  EXPECT_EQ(r2.code(), Errc::permission_denied);
  EXPECT_EQ(daemon_d->active_sessions(), 0u);
}

TEST_F(RmFixture, AuthorizeFlowEndToEnd) {
  // §4 two-certificate flow: CA certifies user + host; user signs a grant;
  // host signs an attestation; RM validates both and issues its own
  // authorization, which a daemon then accepts.
  auto ca = crypto::Principal::create("urn:snipe:ca:utk", rng);
  rm::RmConfig cfg;
  cfg.trust.trust(ca.uri, ca.keys.pub, crypto::TrustPurpose::identify_user);
  cfg.trust.trust(ca.uri, ca.keys.pub, crypto::TrustPurpose::identify_host);
  auto& rm3_host = world.create_host("rmhost3");
  world.attach(rm3_host, *world.network("lan"));
  rm::ResourceManager rm3(rm3_host, replicas(), rm_principal, rm::ResourceManager::kDefaultPort,
                          cfg);

  auto user = crypto::Principal::create("urn:snipe:user:fagg", rng);
  auto req_host = crypto::Principal::create("snipe://client:7201/daemon", rng);

  rm::AuthorizeRequest auth;
  auth.user_cert = crypto::Certificate::issue(ca, user.uri, user.keys.pub,
                                              {crypto::TrustPurpose::identify_user});
  auth.host_cert = crypto::Certificate::issue(ca, req_host.uri, req_host.keys.pub,
                                              {crypto::TrustPurpose::identify_host});
  auth.user_grant = crypto::SignedStatement::make(
      user, rm::user_grant_payload(user.uri, "sleeper", req_host.uri));
  auth.host_attest = crypto::SignedStatement::make(
      req_host, rm::host_attest_payload(req_host.uri, "sleeper"));
  auth.program = "sleeper";
  auth.target_host = "nodeA";

  Result<Bytes> issued(Errc::state_error, "unset");
  client_rpc->call(rm3.address(), rm::tags::kAuthorize, encode(auth),
                   [&](Result<Bytes> r) { issued = r; });
  world.engine().run();
  ASSERT_TRUE(issued.ok()) << issued.error().to_string();
  EXPECT_EQ(rm3.stats().authorizations_issued, 1u);

  // The issued statement satisfies a daemon that trusts the RM.
  SpawnRequest spawn;
  spawn.program = "sleeper";
  spawn.authorization = issued.value();
  EXPECT_TRUE(spawn_via_rpc(daemon_a->address(), spawn).ok());

  // A grant for a different program is rejected.
  auth.user_grant = crypto::SignedStatement::make(
      user, rm::user_grant_payload(user.uri, "other-program", req_host.uri));
  Result<Bytes> rejected(Errc::state_error, "unset");
  client_rpc->call(rm3.address(), rm::tags::kAuthorize, encode(auth),
                   [&](Result<Bytes> r) { rejected = r; });
  world.engine().run();
  EXPECT_EQ(rejected.code(), Errc::permission_denied);
  EXPECT_EQ(rm3.stats().authorizations_rejected, 1u);
}

}  // namespace
}  // namespace snipe::daemon
