// Whole-system integration: a small SNIPE deployment exercising every
// component together — replicated registry, file servers, daemons with
// security on, a resource manager, signed mobile code in playgrounds,
// SnipeProcess messaging, §5.7 pseudo-processes, and a console.
#include <gtest/gtest.h>

#include "core/console.hpp"
#include "core/group.hpp"
#include "core/process.hpp"
#include "obs/trace.hpp"
#include "playground/svmasm.hpp"
#include "transport/srudp.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"
#include "util/uri.hpp"

namespace snipe {
namespace {

using simnet::Address;

struct Deployment : ::testing::Test {
  Deployment() : world(424242), rng(31337) {
    // Two sites joined by a WAN.
    auto& site1 = world.create_network("site1", simnet::ethernet100());
    auto& site2 = world.create_network("site2", simnet::atm155());
    auto& wan = world.create_network("wan", simnet::wan_t3());
    auto add = [&](const std::string& name, simnet::Network& lan) -> simnet::Host& {
      auto& h = world.create_host(name);
      world.attach(h, lan);
      world.attach(h, wan);
      return h;
    };
    add("rc1", site1);
    add("rc2", site2);
    add("fs1", site1);
    add("node1", site1);
    add("node2", site2);
    add("rmhost", site1);
    add("user", site2);

    rc1 = std::make_unique<rcds::RcServer>(*world.host("rc1"));
    rc2 = std::make_unique<rcds::RcServer>(*world.host("rc2"));
    rc1->set_peers({rc2->address()});
    rc2->set_peers({rc1->address()});

    fs = std::make_unique<files::FileServer>(*world.host("fs1"), replicas());

    // Full trust setup (§4).
    ca = crypto::Principal::create("urn:snipe:ca:root", rng);
    signer = crypto::Principal::create("urn:snipe:user:dev", rng);
    signer_cert = crypto::Certificate::issue(ca, signer.uri, signer.keys.pub,
                                             {crypto::TrustPurpose::sign_mobile_code});
    rm_principal = crypto::Principal::create("urn:snipe:rm:grm", rng);

    daemon::DaemonConfig dcfg;
    dcfg.require_authorization = true;
    dcfg.trust.trust(ca.uri, ca.keys.pub, crypto::TrustPurpose::sign_mobile_code);
    dcfg.trust.trust(rm_principal.uri, rm_principal.keys.pub,
                     crypto::TrustPurpose::grant_resources);
    d1 = std::make_unique<daemon::SnipeDaemon>(*world.host("node1"), replicas(),
                                               daemon::SnipeDaemon::kDefaultPort, dcfg);
    d2 = std::make_unique<daemon::SnipeDaemon>(*world.host("node2"), replicas(),
                                               daemon::SnipeDaemon::kDefaultPort, dcfg);
    grm = std::make_unique<rm::ResourceManager>(*world.host("rmhost"), replicas(),
                                                rm_principal);
    grm->manage_host("node1", d1->address());
    grm->manage_host("node2", d2->address());
    world.engine().run_for(duration::seconds(5));
  }

  std::vector<Address> replicas() { return {rc1->address(), rc2->address()}; }

  template <typename Pred>
  void pump_until(Pred pred) {
    while (!pred() && world.engine().step()) {
    }
  }

  simnet::World world;
  Rng rng;
  std::unique_ptr<rcds::RcServer> rc1, rc2;
  std::unique_ptr<files::FileServer> fs;
  crypto::Principal ca, signer, rm_principal;
  crypto::Certificate signer_cert;
  std::unique_ptr<daemon::SnipeDaemon> d1, d2;
  std::unique_ptr<rm::ResourceManager> grm;
};

TEST_F(Deployment, SignedAgentSpawnedViaRmRunsAndReports) {
  // Publish a signed agent that doubles its inputs.
  auto program = playground::assemble(R"(
    loop:
      recv
      push 2
      mul
      emit
      jmp loop
  )");
  ASSERT_TRUE(program.ok());

  core::SnipeProcess user(*world.host("user"), "user", replicas());
  files::FileClient files(user.rpc(), replicas());
  rcds::RcClient rc(user.rpc(), replicas());
  bool published = false;
  playground::publish_code(files, rc, fs->address(), "lifn://code/doubler", program.value(),
                           signer, signer_cert,
                           [&](Result<void> r) { published = r.ok(); });
  world.engine().run();
  ASSERT_TRUE(published);

  // Spawn via the RM (which signs the authorization the daemons demand).
  daemon::SpawnRequest req;
  req.program = "lifn://code/doubler";
  req.name = "doubler";
  req.args = {21};
  Result<daemon::SpawnReply> reply(Errc::state_error, "unset");
  bool replied = false;
  user.spawn_via_rm(grm->address(), req, [&](Result<daemon::SpawnReply> r) {
    replied = true;
    reply = r;
  });
  pump_until([&] { return replied; });
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();

  // The VM consumed input 21 and is blocked; it lives on one of the nodes.
  world.engine().run_for(duration::milliseconds(100));
  auto& home = reply.value().host == "node1" ? *d1 : *d2;
  EXPECT_EQ(home.task_state("urn:snipe:proc:doubler").value(),
            daemon::TaskState::running);

  // Console sees it in the host's task metadata and in its own record.
  core::SnipeProcess console_proc(*world.host("user"), "console", replicas());
  core::Console console(console_proc);
  Result<std::vector<std::string>> on_host(Errc::state_error, "unset");
  console.processes_on_host(home.host_url(),
                            [&](Result<std::vector<std::string>> r) { on_host = r; });
  world.engine().run();
  ASSERT_TRUE(on_host.ok());
  EXPECT_NE(std::find(on_host.value().begin(), on_host.value().end(),
                      "urn:snipe:proc:doubler"),
            on_host.value().end());
}

TEST_F(Deployment, SpawnViaHostIsBrokeredThroughRm) {
  // §5.5: the host metadata lists the RM as broker (manage_host registered
  // it), so spawn_via_host routes through the RM, which authorizes it.
  auto program = playground::assemble("push 0\nhalt");
  core::SnipeProcess user(*world.host("user"), "user2", replicas());
  files::FileClient files(user.rpc(), replicas());
  rcds::RcClient rc(user.rpc(), replicas());
  bool published = false;
  playground::publish_code(files, rc, fs->address(), "lifn://code/exit0", program.value(),
                           signer, signer_cert,
                           [&](Result<void> r) { published = r.ok(); });
  world.engine().run();
  ASSERT_TRUE(published);

  daemon::SpawnRequest req;
  req.program = "lifn://code/exit0";
  req.name = "brokered";
  Result<daemon::SpawnReply> reply(Errc::state_error, "unset");
  bool replied = false;
  user.spawn_via_host("node1", req, [&](Result<daemon::SpawnReply> r) {
    replied = true;
    reply = r;
  });
  pump_until([&] { return replied; });
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_GE(grm->stats().allocations, 1u);  // went through the broker
}

TEST_F(Deployment, PseudoProcessFansOutToReplicas) {
  // §5.7: three replicas join a group; a pseudo-process URN points at the
  // group; one send reaches all three.
  std::vector<std::unique_ptr<core::SnipeProcess>> replicas_procs;
  std::vector<std::unique_ptr<core::MulticastGroup>> memberships;
  std::string g = group_urn("replica-set");
  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    auto host = i == 0 ? "node1" : (i == 1 ? "node2" : "user");
    replicas_procs.push_back(std::make_unique<core::SnipeProcess>(
        *world.host(host), "replica-" + std::to_string(i), replicas()));
    world.engine().run();
    memberships.push_back(
        std::make_unique<core::MulticastGroup>(*replicas_procs.back(), g));
    world.engine().run();
    memberships.back()->set_handler([&](const std::string&, Bytes body) {
      auto msg = decode<core::UserMessage>(body);
      ASSERT_TRUE(msg.ok());
      EXPECT_EQ(msg.value().tag, 9u);
      EXPECT_EQ(to_string(msg.value().body), "compute!");
      ++delivered;
    });
  }

  core::SnipeProcess client(*world.host("rmhost"), "pseudo-client", replicas());
  world.engine().run();
  client.register_pseudo_process("urn:snipe:proc:replicated-service", g);
  world.engine().run();

  Result<void> sent(Errc::state_error, "unset");
  client.send("urn:snipe:proc:replicated-service", 9, to_bytes("compute!"),
              [&](Result<void> r) { sent = r; });
  world.engine().run();
  ASSERT_TRUE(sent.ok()) << sent.error().to_string();
  EXPECT_EQ(delivered, 3);
}

TEST_F(Deployment, TraceRecordsSpawnFailoverMigrationInOrder) {
  // The virtual-time tracer should tell the story of a whole scenario in
  // order: a task spawn (daemon), a transport failover (transport), then a
  // process migration (core) — each later than the one before it.
  auto& tracer = world.tracer();
  tracer.set_enabled(true);
  tracer.clear();

  // 1. Spawn a signed agent via the RM -> daemon emits "task.running".
  auto program = playground::assemble(R"(
    loop:
      recv
      push 2
      mul
      emit
      jmp loop
  )");
  ASSERT_TRUE(program.ok());
  core::SnipeProcess user(*world.host("user"), "trace-user", replicas());
  files::FileClient files(user.rpc(), replicas());
  rcds::RcClient rc(user.rpc(), replicas());
  bool published = false;
  playground::publish_code(files, rc, fs->address(), "lifn://code/traced", program.value(),
                           signer, signer_cert,
                           [&](Result<void> r) { published = r.ok(); });
  world.engine().run();
  ASSERT_TRUE(published);
  daemon::SpawnRequest req;
  req.program = "lifn://code/traced";
  req.name = "traced";
  bool replied = false;
  Result<daemon::SpawnReply> reply(Errc::state_error, "unset");
  user.spawn_via_rm(grm->address(), req, [&](Result<daemon::SpawnReply> r) {
    replied = true;
    reply = r;
  });
  pump_until([&] { return replied; });
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();

  // 2. SRUDP stream between two dual-homed hosts (site1 + wan); killing the
  //    receiver's site1 NIC mid-stream forces "srudp.route_switch".
  transport::SrudpEndpoint tx(*world.host("node1"), 7501);
  transport::SrudpEndpoint rx(*world.host("fs1"), 7502);
  int delivered = 0;
  rx.set_handler([&](const Address&, Payload) { ++delivered; });
  for (int i = 0; i < 40; ++i) tx.send(rx.address(), Bytes(32'768, 0x5a));
  world.engine().run_for(duration::milliseconds(10));
  world.host("fs1")->nic_on("site1")->set_up(false);
  world.engine().run();
  ASSERT_EQ(delivered, 40);
  ASSERT_GE(tx.stats().route_switches, 1u);

  // 3. Migrate a SnipeProcess -> "process.migrated".
  core::SnipeProcess roamer(*world.host("node1"), "roamer", replicas());
  world.engine().run();
  bool migrated = false;
  roamer.migrate_to(*world.host("node2"), [&](Result<void> r) { migrated = r.ok(); });
  world.engine().run();
  ASSERT_TRUE(migrated);

  // The trace contains all three milestones, in strictly increasing order.
  auto events = tracer.events();
  auto index_of = [&](const std::string& cat, const std::string& name) {
    for (std::size_t i = 0; i < events.size(); ++i)
      if (events[i].cat == cat && events[i].name == name) return static_cast<long>(i);
    return -1L;
  };
  long spawn = index_of("daemon", "task.running");
  long failover = index_of("transport", "srudp.route_switch");
  long migration = index_of("core", "process.migrated");
  ASSERT_GE(spawn, 0) << "no task.running event";
  ASSERT_GE(failover, 0) << "no srudp.route_switch event";
  ASSERT_GE(migration, 0) << "no process.migrated event";
  EXPECT_LT(spawn, failover);
  EXPECT_LT(failover, migration);
  // Virtual timestamps are monotone with the event order.
  EXPECT_LE(events[spawn].ts, events[failover].ts);
  EXPECT_LE(events[failover].ts, events[migration].ts);
}

TEST_F(Deployment, ReplicatedHttpServiceSurvivesLocationFailure) {
  // §5.7 last bullet: a service at multiple locations; the gateway falls
  // over to the next location when the first dies.
  core::SnipeProcess s1(*world.host("node1"), "web1", replicas());
  core::SnipeProcess s2(*world.host("node2"), "web2", replicas());
  core::HttpServer server1(s1, "http://svc/", [](const core::HttpRequest&) {
    return core::HttpResponse{200, to_bytes("from web1")};
  });
  core::HttpServer server2(s2, "http://svc/", [](const core::HttpRequest&) {
    return core::HttpResponse{200, to_bytes("from web2")};
  });
  world.engine().run();
  // Both register under the same service URI (kServiceLocation is set by
  // each; make them coexist as two values).
  rcds::RcClient rc(s2.rpc(), replicas());
  rc.apply("http://svc/",
           {rcds::op_add(rcds::names::kServiceLocation, s1.urn()),
            rcds::op_add(rcds::names::kServiceLocation, s2.urn())},
           [](Result<std::vector<rcds::Assertion>>) {});
  world.engine().run();

  core::SnipeProcess browser(*world.host("user"), "browser", replicas());
  core::HttpGateway gateway(browser);
  world.engine().run();

  // Kill whichever location the gateway would try first; the request must
  // still succeed via the other.
  world.host("node1")->set_up(false);
  Result<core::HttpResponse> response(Errc::state_error, "unset");
  gateway.request("http://svc/", core::HttpRequest{},
                  [&](Result<core::HttpResponse> r) { response = r; });
  world.engine().run_for(duration::seconds(30));
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 200);
}

}  // namespace
}  // namespace snipe
