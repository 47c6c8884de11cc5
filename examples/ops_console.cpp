// An operator's console session (§3.7).
//
// "A SNIPE console is any SNIPE process which communicates with humans.
//  Communication can be via a character-based or graphical user
//  interface."  This example stands up a small SNIPE site — registry,
//  daemon, resource manager, one running task, one multicast group — and
//  then replays the kind of character-based session an operator would
//  type, evaluating each command against live RC metadata.  Because
//  "there is no SNIPE virtual machine apart from the entire Internet",
//  every query starts from a name: a host URL, a process URN, a group URN.
//
//  The session ends with the observability view of the same run: the
//  operator's `metrics` command, a full metrics snapshot, and a Chrome
//  trace dumped to ops_console_trace.json (open it at ui.perfetto.dev).
//
//   $ ./ops_console
#include <cstdio>

#include "core/console.hpp"
#include "core/group.hpp"
#include "core/process.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rcds/server.hpp"
#include "rm/resource_manager.hpp"
#include "util/uri.hpp"

using namespace snipe;

namespace {

/// A long-running native service for the console to inspect.
class Service final : public daemon::ManagedTask {
 public:
  explicit Service(daemon::TaskHandle&) {}
  void start() override {}
  void kill() override {}
};

}  // namespace

int main() {
  simnet::World world(77);
  auto& lan = world.create_network("lan", simnet::ethernet100());
  for (const char* n : {"rc", "node", "rmhost", "opsdesk"})
    world.attach(world.create_host(n), lan);

  rcds::RcServer rc(*world.host("rc"));
  std::vector<simnet::Address> replicas = {rc.address()};

  Rng rng(78);
  auto rm_principal = crypto::Principal::create("urn:snipe:rm:grm1", rng);
  daemon::DaemonConfig dcfg;
  dcfg.arch = "alpha-osf1";
  dcfg.cpus = 4;
  daemon::SnipeDaemon d(*world.host("node"), replicas, daemon::SnipeDaemon::kDefaultPort,
                        dcfg);
  d.register_program("weather-service",
                     [](const daemon::SpawnRequest&, daemon::TaskHandle& h)
                         -> Result<std::unique_ptr<daemon::ManagedTask>> {
                       return std::unique_ptr<daemon::ManagedTask>(new Service(h));
                     });
  rm::ResourceManager grm(*world.host("rmhost"), replicas, rm_principal);
  grm.manage_host("node", d.address());
  world.engine().run_for(duration::seconds(3));

  // Something to look at: a task and a group member.
  core::SnipeProcess operator_proc(*world.host("opsdesk"), "operator", replicas);
  daemon::SpawnRequest req;
  req.program = "weather-service";
  req.name = "wsvc-1";
  operator_proc.spawn_via_host("node", req, [](Result<daemon::SpawnReply> r) {
    if (!r) std::printf("spawn failed: %s\n", r.error().to_string().c_str());
  });
  world.engine().run();
  core::MulticastGroup membership(operator_proc, group_urn("ops-alerts"));
  world.engine().run();

  // The scripted console session.
  core::Console console(operator_proc);
  std::string host_uri = d.host_url();
  std::vector<std::string> commands = {
      "ps " + host_uri,
      "state urn:snipe:proc:wsvc-1",
      "where urn:snipe:proc:wsvc-1",
      "meta " + host_uri,
      "routers " + group_urn("ops-alerts"),
      "state urn:snipe:proc:does-not-exist",
      "metrics rcds.",
      "help",
  };
  for (const auto& line : commands) {
    std::printf("snipe> %s\n", line.c_str());
    console.interpret(line, [](std::string reply) {
      // Indent multi-line replies like a terminal would.
      std::string out = "  ";
      for (char c : reply) {
        out += c;
        if (c == '\n') out += "  ";
      }
      std::printf("%s\n", out.c_str());
    });
    world.engine().run();
  }
  std::printf("== session over at t=%s ==\n", format_time(world.now()).c_str());

  // What the whole run looked like to the observability subsystem.
  std::printf("\n== metrics snapshot ==\n%s",
              obs::MetricsRegistry::global().format_text().c_str());
  const char* trace_path = "ops_console_trace.json";
  if (world.tracer().write_chrome_json(trace_path))
    std::printf("== trace: %zu events -> %s (load in ui.perfetto.dev) ==\n",
                world.tracer().events().size(), trace_path);
  return 0;
}
