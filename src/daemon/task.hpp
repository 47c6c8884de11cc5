// Task model shared by the SNIPE daemon, resource managers and client
// library.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/codec.hpp"
#include "util/result.hpp"

namespace snipe::daemon {

/// Lifecycle states the daemon reports to RC and to interested parties
/// ("monitoring those tasks for state changes ... informing interested
/// parties of changes to the status of those tasks (exit, suspend,
/// checkpoint)" — §3.3).
enum class TaskState : std::uint8_t {
  starting = 0,
  running = 1,
  suspended = 2,
  exited = 3,
  failed = 4,    ///< trapped / quota violation / spawn failure
  killed = 5,
  migrated = 6,  ///< checkpointed and resumed elsewhere (§5.6)
};

const char* task_state_name(TaskState s);

/// Signals a daemon can deliver to a local task (§3.3 "delivery of signals
/// to local tasks").
enum class TaskSignal : std::uint8_t {
  kill = 1,
  suspend = 2,
  resume = 3,
};

/// A request to spawn a process (§5.5): the program, its environment
/// requirements, and optionally an RM-signed authorization (§4).
struct SpawnRequest {
  /// A program name registered with the daemon, or a code LIFN
  /// ("lifn://...") to run in the playground.
  std::string program;
  /// Instance name; the daemon derives the process URN from it (a fresh
  /// name is generated when empty).
  std::string name;
  /// Initial inputs (VM input queue / native task arguments).
  std::vector<std::int64_t> args;
  /// Environment specification (§5.5): requirements the host must satisfy.
  std::string require_arch;       ///< "" = any
  std::int32_t require_cpus = 0;  ///< minimum CPUs
  /// Restore-from-checkpoint: LIFN of a VM snapshot on a file server.  Set
  /// by the migration/restart machinery; empty for fresh spawns.
  std::string restore_lifn;
  /// Encoded crypto::SignedStatement authorizing this spawn, issued by a
  /// resource manager the daemon trusts (§4).  May be empty if the daemon
  /// does not require authorization.
  Bytes authorization;

  template <class Io>
  void fields(Io& io) {
    io(program, name, args, require_arch, require_cpus, restore_lifn, authorization);
  }
  Result<void> check() const {
    if (args.size() > 1 << 16) return Error{Errc::corrupt, "absurd arg count"};
    return ok_result();
  }
};

/// What a daemon returns from a successful spawn.
struct SpawnReply {
  std::string urn;        ///< the process's distinguished URN (§5.2.3)
  std::string host;       ///< where it runs
  std::uint16_t port = 0; ///< the task's communication endpoint, 0 if none

  template <class Io>
  void fields(Io& io) {
    io(urn, host, port);
  }
};

/// Callbacks a running task uses to tell its daemon about itself.
class TaskHandle {
 public:
  virtual ~TaskHandle() = default;
  /// The task's URN (available from construction).
  virtual const std::string& urn() const = 0;
  /// Reports normal completion.
  virtual void exited(std::int64_t code) = 0;
  /// Reports abnormal termination (trap, quota, internal error).
  virtual void failed(const std::string& why) = 0;
  /// Publishes the task's communication address in its RC metadata.
  virtual void set_comm_port(std::uint16_t port) = 0;
};

/// The daemon-side interface every managed task implements.  Native C++
/// service tasks subclass this directly; mobile code runs through the
/// playground's VmTask behind the same interface.
class ManagedTask {
 public:
  virtual ~ManagedTask() = default;
  virtual void start() = 0;
  virtual void suspend() {}
  virtual void resume() {}
  virtual void kill() = 0;
  /// Serializes enough state to resume elsewhere; tasks that cannot be
  /// checkpointed return state_error (native code without playground
  /// support — exactly the paper's situation).
  virtual Result<Bytes> checkpoint() {
    return Result<Bytes>(Errc::state_error, "task is not checkpointable");
  }
  /// Feeds an input value (used to deliver data to VM tasks).
  virtual void push_input(std::int64_t) {}
};

/// Factory for native programs registered with a daemon.
using TaskFactory =
    std::function<Result<std::unique_ptr<ManagedTask>>(const SpawnRequest&, TaskHandle&)>;

}  // namespace snipe::daemon
