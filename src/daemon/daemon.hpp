// The per-host SNIPE daemon (§3.3, §5.5).
//
// "Each SNIPE daemon mediates the use of resources on its particular host.
//  SNIPE daemons are responsible for authenticating requests, enforcing
//  access restrictions, management of local tasks, delivery of signals to
//  local tasks, monitoring machine load and other local resources, and
//  name-to-address lookup of local tasks."
//
// Responsibilities implemented here:
//   * publish the host's distinguished metadata at startup (§5.2.1);
//   * spawn native programs (registered factories) and mobile code (LIFNs,
//     loaded through the playground with full verification), including
//     restore-from-checkpoint spawns used by migration (§5.6);
//   * verify RM-signed spawn authorizations when configured (§4);
//   * enforce the environment specification (arch / CPU requirements);
//   * track task state, publish it as process metadata, and notify the
//     spawner and any registered watchers of state changes;
//   * deliver signals (kill/suspend/resume) and serve checkpoint-to-file-
//     server requests;
//   * report load, both on demand and periodically into RC.
#pragma once

#include <map>
#include <memory>

#include "crypto/identity.hpp"
#include "crypto/session.hpp"
#include "daemon/task.hpp"
#include "files/fileserver.hpp"
#include "obs/metrics.hpp"
#include "playground/playground.hpp"
#include "rcds/client.hpp"
#include "transport/rpc.hpp"

namespace snipe::daemon {

namespace tags {
inline constexpr std::uint32_t kSpawn = 130;
inline constexpr std::uint32_t kSignal = 131;
inline constexpr std::uint32_t kTaskInfo = 132;
inline constexpr std::uint32_t kListTasks = 133;
inline constexpr std::uint32_t kCheckpointTo = 134;  ///< checkpoint to a file server
inline constexpr std::uint32_t kTaskEvent = 135;     ///< one-way state-change notice
inline constexpr std::uint32_t kLoad = 136;
inline constexpr std::uint32_t kPing = 137;
inline constexpr std::uint32_t kSessionHello = 138;  ///< §4 authenticated channel setup
inline constexpr std::uint32_t kSpawnSealed = 139;   ///< spawn over the session, unsigned
}  // namespace tags

/// kSignal request.
struct SignalRequest {
  std::string urn;
  TaskSignal signal = TaskSignal::kill;

  template <class Io>
  void fields(Io& io) {
    io(urn, signal);
  }
};

/// kCheckpointTo request: snapshot task `urn` to `lifn` on `file_server`.
struct CheckpointRequest {
  std::string urn;
  std::string lifn;
  simnet::Address file_server;

  template <class Io>
  void fields(Io& io) {
    io(urn, lifn, file_server);
  }
};

/// kTaskInfo reply.
struct TaskInfo {
  TaskState state = TaskState::starting;
  std::uint16_t comm_port = 0;
  std::int64_t exit_code = 0;

  template <class Io>
  void fields(Io& io) {
    io(state, comm_port, exit_code);
  }
};

/// kTaskEvent notice: a task changed state.
struct TaskEvent {
  std::string urn;
  TaskState state = TaskState::starting;
  std::int64_t exit_code = 0;

  template <class Io>
  void fields(Io& io) {
    io(urn, state, exit_code);
  }
};

/// kLoad reply, and the health pong on the daemon's ping port.
struct LoadReport {
  double load = 0;
  std::uint32_t running = 0;  ///< running or starting tasks

  template <class Io>
  void fields(Io& io) {
    io(load, running);
  }
};

struct DaemonConfig {
  std::string arch = "sparc-sunos";  ///< advertised host architecture
  int cpus = 1;
  /// Optional host identity; when set, the host's public key is published
  /// in its metadata ("Authentication credentials – public keys and key
  /// certificates to be used to authenticate the host", §5.2.1).
  std::shared_ptr<crypto::Principal> host_principal;
  /// Require an RM-signed authorization on every spawn (§4).
  bool require_authorization = false;
  /// Issuers trusted for grant_resources (spawn auth) and sign_mobile_code
  /// (playground verification).
  crypto::TrustStore trust;
  playground::PlaygroundConfig playground;
};

struct DaemonStats {
  std::uint64_t spawns_ok = 0;
  std::uint64_t spawns_rejected = 0;
  std::uint64_t signals_delivered = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t events_sent = 0;
};

/// Canonical payload of an RM spawn authorization (§4): what the RM signs.
Bytes authorization_payload(const std::string& program, const std::string& host);

class SnipeDaemon {
 public:
  static constexpr std::uint16_t kDefaultPort = 7201;
  /// Period of the load report into the host's RC record.
  static constexpr SimDuration kLoadReportPeriod = duration::seconds(2);

  SnipeDaemon(simnet::Host& host, std::vector<simnet::Address> rc_replicas,
              std::uint16_t port = kDefaultPort, DaemonConfig config = {});

  /// Registers a native program (§3.3 task management).
  void register_program(const std::string& name, TaskFactory factory);

  simnet::Address address() const { return rpc_.address(); }
  /// The host's distinguished URL (§5.2.1).
  std::string host_url() const;

  /// Raw-datagram health port: any datagram sent here is answered with a
  /// single unreliable pong carrying (load, running task count).  Health
  /// probes deliberately bypass the reliable transport — a retried
  /// liveness probe measures the transport, not the host.
  static constexpr std::uint16_t kPingPortOffset = 1000;
  std::uint16_t ping_port() const { return static_cast<std::uint16_t>(address().port + kPingPortOffset); }

  /// Spawns locally (async: mobile code requires network fetches).
  void spawn(const SpawnRequest& request, const simnet::Address& spawner,
             std::function<void(Result<SpawnReply>)> done);

  std::size_t active_sessions() const { return sessions_.size(); }

  /// Local queries used by tests and co-located components.
  Result<TaskState> task_state(const std::string& urn) const;
  std::size_t running_tasks() const;
  double load() const;

  const DaemonStats& stats() const { return stats_; }
  transport::RpcEndpoint& rpc() { return rpc_; }
  rcds::RcClient& rc() { return rc_; }

 private:
  struct TaskEntry final : TaskHandle {
    SnipeDaemon* daemon = nullptr;
    std::string task_urn;
    TaskState state = TaskState::starting;
    std::unique_ptr<ManagedTask> task;
    simnet::Address spawner;
    std::uint16_t comm_port = 0;
    std::int64_t exit_code = 0;

    const std::string& urn() const override { return task_urn; }
    void exited(std::int64_t code) override;
    void failed(const std::string& why) override;
    void set_comm_port(std::uint16_t port) override;
  };

  void publish_host_metadata();
  void publish_load();
  Result<void> check_environment(const SpawnRequest& request) const;
  Result<void> check_authorization(const SpawnRequest& request) const;
  void set_state(TaskEntry& entry, TaskState state, const std::string& detail = "");
  void finish_spawn(std::shared_ptr<TaskEntry> entry,
                    std::function<void(Result<SpawnReply>)> done);
  void spawn_vm(const SpawnRequest& request, std::shared_ptr<TaskEntry> entry,
                std::function<void(Result<SpawnReply>)> done);
  /// Spawn whose authorization was already established (session channel).
  void spawn_preauthorized(const SpawnRequest& request, const simnet::Address& spawner,
                           std::function<void(Result<SpawnReply>)> done);

  simnet::Host& host_;
  transport::RpcEndpoint rpc_;
  simnet::Engine& engine_;
  DaemonConfig config_;
  rcds::RcClient rc_;
  files::FileClient files_;
  playground::Playground playground_;
  std::map<std::string, TaskFactory> programs_;
  std::map<std::string, std::shared_ptr<TaskEntry>> tasks_;
  /// §4 authenticated channels, keyed by the RM endpoint that opened them.
  std::map<simnet::Address, crypto::Session> sessions_;
  std::uint64_t next_task_seq_ = 1;
  DaemonStats stats_;
  obs::Counter* heartbeats_;  ///< host's "daemon.heartbeats" (pongs answered)
  Logger log_;
  /// Declared last so the stats visitor retires before stats_ dies.
  obs::SourceHandle stats_source_;
};

}  // namespace snipe::daemon
