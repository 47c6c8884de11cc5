#include "daemon/daemon.hpp"

#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "util/uri.hpp"

namespace snipe::daemon {

namespace {

/// Adapter running a playground VmTask behind the ManagedTask interface.
class VmManagedTask final : public ManagedTask {
 public:
  VmManagedTask(simnet::Engine& engine, playground::Vm vm, TaskHandle& handle)
      : task_(engine, std::move(vm)), handle_(handle) {
    task_.set_exit_handler([this](playground::VmStatus status, std::int64_t code) {
      if (status == playground::VmStatus::halted)
        handle_.exited(code);
      else
        handle_.failed(std::string("vm ") + playground::vm_status_name(status) + ": " +
                       task_.vm().fault());
    });
  }

  void start() override { task_.start(); }
  void suspend() override { task_.suspend(); }
  void resume() override { task_.resume(); }
  void kill() override { task_.suspend(); }
  Result<Bytes> checkpoint() override { return task_.checkpoint(); }
  void push_input(std::int64_t v) override { task_.push_input(v); }

  playground::VmTask& vm_task() { return task_; }

 private:
  playground::VmTask task_;
  TaskHandle& handle_;
};

}  // namespace

Bytes authorization_payload(const std::string& program, const std::string& host) {
  return encode(std::string("snipe:spawn-authorization"), program, host);
}

SnipeDaemon::SnipeDaemon(simnet::Host& host, std::vector<simnet::Address> rc_replicas,
                         std::uint16_t port, DaemonConfig config)
    : host_(host),
      rpc_(host, port, {}),
      engine_(host.engine()),
      config_(std::move(config)),
      rc_(rpc_, rc_replicas),
      files_(rpc_, rc_replicas),
      playground_(rc_, files_, config_.trust, config_.playground),
      log_("daemon@" + host.name(), host.clock()) {
  rpc_.serve_async(tags::kSpawn, [this](const simnet::Address& from, const Payload& body,
                                        transport::RpcEndpoint::Responder respond) {
    auto request = decode<SpawnRequest>(body);
    if (!request) {
      respond(request.error());
      return;
    }
    spawn(request.value(), from, [respond](Result<SpawnReply> r) {
      if (!r) {
        respond(r.error());
        return;
      }
      respond(Payload(encode(r.value())));
    });
  });

  rpc_.serve(tags::kSignal, [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
    auto request = decode<SignalRequest>(body);
    if (!request) return Error{Errc::corrupt, "bad signal request"};
    auto it = tasks_.find(request.value().urn);
    if (it == tasks_.end()) return Result<Bytes>(Errc::not_found, request.value().urn);
    TaskEntry& entry = *it->second;
    ++stats_.signals_delivered;
    switch (request.value().signal) {
      case TaskSignal::kill:
        entry.task->kill();
        set_state(entry, TaskState::killed);
        break;
      case TaskSignal::suspend:
        entry.task->suspend();
        set_state(entry, TaskState::suspended);
        break;
      case TaskSignal::resume:
        entry.task->resume();
        set_state(entry, TaskState::running);
        break;
      default:
        return Error{Errc::invalid_argument, "unknown signal"};
    }
    return Bytes{};
  });

  rpc_.serve(tags::kTaskInfo,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               auto urn = decode<std::string>(body);
               if (!urn) return urn.error();
               auto it = tasks_.find(urn.value());
               if (it == tasks_.end()) return Result<Bytes>(Errc::not_found, urn.value());
               const TaskEntry& entry = *it->second;
               return encode(TaskInfo{entry.state, entry.comm_port, entry.exit_code});
             });

  rpc_.serve(tags::kListTasks,
             [this](const simnet::Address&, const Payload&) -> Result<Bytes> {
               std::vector<std::pair<std::string, TaskState>> list;
               for (const auto& [urn, entry] : tasks_) list.emplace_back(urn, entry->state);
               return encode(list);
             });

  rpc_.serve_async(tags::kCheckpointTo,
                   [this](const simnet::Address&, const Payload& body,
                          transport::RpcEndpoint::Responder respond) {
                     auto request = decode<CheckpointRequest>(body);
                     if (!request) {
                       respond(Error{Errc::corrupt, "bad checkpoint request"});
                       return;
                     }
                     const CheckpointRequest& req = request.value();
                     auto it = tasks_.find(req.urn);
                     if (it == tasks_.end()) {
                       respond(Result<Bytes>(Errc::not_found, req.urn));
                       return;
                     }
                     auto snapshot = it->second->task->checkpoint();
                     if (!snapshot) {
                       respond(snapshot.error());
                       return;
                     }
                     ++stats_.checkpoints;
                     // §5.6: "Temporary storage of state is provided by the
                     // SNIPE file servers."
                     files_.write(req.file_server, req.lifn, snapshot.value(),
                                  [respond, lifn = req.lifn](Result<void> wrote) {
                                    if (!wrote) {
                                      respond(wrote.error());
                                      return;
                                    }
                                    respond(encode_payload(lifn));
                                  });
                   });

  rpc_.serve(tags::kLoad, [this](const simnet::Address&, const Payload&) -> Result<Bytes> {
    return encode(LoadReport{load(), static_cast<std::uint32_t>(running_tasks())});
  });

  rpc_.serve(tags::kPing,
             [](const simnet::Address&, const Payload&) -> Result<Bytes> { return Bytes{}; });

  // §4 authenticated channel: an RM we trust for grant_resources signs a
  // session hello encrypted to our host key; afterwards its spawns arrive
  // sealed (MAC'd, sequence-checked) instead of individually RSA-signed.
  rpc_.serve(tags::kSessionHello,
             [this](const simnet::Address& from, const Payload& body) -> Result<Bytes> {
               if (config_.host_principal == nullptr)
                 return Result<Bytes>(Errc::state_error, "host has no key pair");
               auto stmt = decode<crypto::SignedStatement>(body);
               if (!stmt) return stmt.error();
               if (auto v = config_.trust.validate_direct(
                       stmt.value(), crypto::TrustPurpose::grant_resources);
                   !v)
                 return Result<Bytes>(v.error().code, v.error().message);
               auto session = crypto::Session::accept(config_.host_principal->keys.priv,
                                                      stmt.value().payload);
               if (!session) return session.error();
               sessions_.erase(from);
               sessions_.emplace(from, std::move(session).take());
               log_.debug("authenticated session established with ", stmt.value().signer);
               return Bytes{};
             });

  rpc_.serve_async(tags::kSpawnSealed, [this](const simnet::Address& from, const Payload& body,
                                              transport::RpcEndpoint::Responder respond) {
    auto it = sessions_.find(from);
    if (it == sessions_.end()) {
      respond(Result<Bytes>(Errc::permission_denied, "no session with " + from.to_string()));
      return;
    }
    auto opened = it->second.open(body);
    if (!opened) {
      // Bad MAC or replay: the §4 hijack detections.  Log and refuse.
      log_.warn("sealed spawn from ", from.to_string(), " rejected: ",
                opened.error().to_string());
      respond(opened.error());
      return;
    }
    auto request = decode<SpawnRequest>(opened.value());
    if (!request) {
      respond(request.error());
      return;
    }
    // The channel itself carries the RM's authority — no per-spawn
    // signature to verify.
    spawn_preauthorized(request.value(), from, [respond](Result<SpawnReply> r) {
      if (!r) {
        respond(r.error());
        return;
      }
      respond(Payload(encode(r.value())));
    });
  });

  // Unreliable health responder (see ping_port()).
  host_.bind(ping_port(), [this](const simnet::Packet& p) {
            heartbeats_->inc();
            simnet::SendOptions opts;
            opts.src_port = ping_port();
            auto r = host_.send(simnet::Address{p.src->name(), p.src_port},
                                encode(LoadReport{load(), static_cast<std::uint32_t>(running_tasks())}),
                                opts);
            if (!r) log_.trace("pong failed: ", r.error().to_string());
          })
      .value();

  publish_host_metadata();
  engine_.schedule_weak(kLoadReportPeriod, [this] { publish_load(); });
  heartbeats_ = &host_.metrics().counter("daemon.heartbeats");
  stats_source_ = host_.metrics().add_stats([this](obs::StatsSink& s) {
    s.add("daemon.spawns_ok", stats_.spawns_ok);
    s.add("daemon.spawns_rejected", stats_.spawns_rejected);
    s.add("daemon.signals_delivered", stats_.signals_delivered);
    s.add("daemon.checkpoints", stats_.checkpoints);
    s.add("daemon.events_sent", stats_.events_sent);
  });
}

std::string SnipeDaemon::host_url() const {
  return snipe::host_url(host_.name(), rpc_.address().port);
}

void SnipeDaemon::register_program(const std::string& name, TaskFactory factory) {
  programs_[name] = std::move(factory);
}

void SnipeDaemon::publish_host_metadata() {
  // §5.2.1: the distinguished host record.
  std::vector<rcds::Op> ops = {
      rcds::op_set(rcds::names::kHostDaemon, host_url()),
      rcds::op_set(rcds::names::kHostArch, config_.arch),
      rcds::op_set(rcds::names::kHostCpus, std::to_string(config_.cpus)),
      rcds::op_set(rcds::names::kHostLoad, "0"),
  };
  if (config_.host_principal != nullptr)
    ops.push_back(rcds::op_set(rcds::names::kHostKey,
                               hex_encode(encode(config_.host_principal->keys.pub))));
  for (const auto& nic : host_.nics()) {
    const auto& m = nic->network()->model();
    // §5.2.1: per-interface protocol/latency/bandwidth metadata, used by
    // route selection and multicast router placement.
    ops.push_back(rcds::op_add(
        rcds::names::kHostInterface,
        nic->network()->name() + ";" + m.name + ";bw=" + std::to_string(m.bandwidth_bps) +
            ";lat_ns=" + std::to_string(m.latency)));
  }
  rc_.apply(host_url(), ops, [this](Result<std::vector<rcds::Assertion>> r) {
    if (!r) log_.warn("host metadata publish failed: ", r.error().to_string());
  });
}

void SnipeDaemon::publish_load() {
  engine_.schedule_weak(kLoadReportPeriod, [this] { publish_load(); });
  if (!host_.up()) return;  // a dead host reports nothing
  rc_.set(host_url(), rcds::names::kHostLoad, std::to_string(load()),
          [](Result<void>) {});
}

double SnipeDaemon::load() const {
  return static_cast<double>(running_tasks()) / std::max(1, config_.cpus);
}

std::size_t SnipeDaemon::running_tasks() const {
  std::size_t n = 0;
  for (const auto& [urn, entry] : tasks_)
    if (entry->state == TaskState::running || entry->state == TaskState::starting) ++n;
  return n;
}

Result<TaskState> SnipeDaemon::task_state(const std::string& urn) const {
  auto it = tasks_.find(urn);
  if (it == tasks_.end()) return Result<TaskState>(Errc::not_found, urn);
  return it->second->state;
}

Result<void> SnipeDaemon::check_environment(const SpawnRequest& request) const {
  // §5.5: "the program ... may run only on certain CPU types, it may
  // require a certain amount of memory or CPU time".
  if (!request.require_arch.empty() && request.require_arch != config_.arch)
    return Error{Errc::invalid_argument,
                 "host arch " + config_.arch + " != required " + request.require_arch};
  if (request.require_cpus > config_.cpus)
    return Error{Errc::invalid_argument, "not enough CPUs"};
  return ok_result();
}

Result<void> SnipeDaemon::check_authorization(const SpawnRequest& request) const {
  if (!config_.require_authorization) return ok_result();
  if (request.authorization.empty())
    return Error{Errc::permission_denied, "spawn authorization required"};
  auto stmt = decode<crypto::SignedStatement>(request.authorization);
  if (!stmt) return Error{Errc::permission_denied, "undecodable authorization"};
  if (auto v = config_.trust.validate_direct(stmt.value(),
                                             crypto::TrustPurpose::grant_resources);
      !v)
    return v;
  // The statement must authorize *this* program on *this* host.
  if (stmt.value().payload != authorization_payload(request.program, host_.name()))
    return Error{Errc::permission_denied, "authorization does not cover this spawn"};
  return ok_result();
}

void SnipeDaemon::set_state(TaskEntry& entry, TaskState state, const std::string& detail) {
  if (entry.state == state) return;
  entry.state = state;
  host_.tracer().instant(
      engine_.now(), "daemon", std::string("task.") + task_state_name(state),
      detail.empty()
          ? std::vector<std::pair<std::string, std::string>>{{"urn", entry.task_urn}}
          : std::vector<std::pair<std::string, std::string>>{{"urn", entry.task_urn},
                                                             {"detail", detail}});
  log_.debug(entry.task_urn, " -> ", task_state_name(state),
             detail.empty() ? "" : (": " + detail));
  // Publish as process metadata (§5.2.3) ...
  rc_.set(entry.task_urn, rcds::names::kProcState, task_state_name(state),
          [](Result<void>) {});
  // ... and notify the spawner directly (§3.3 "informing interested
  // parties of changes to the status of those tasks").
  if (entry.spawner.port != 0) {
    rpc_.notify(entry.spawner, tags::kTaskEvent,
                encode(TaskEvent{entry.task_urn, state, entry.exit_code}));
    ++stats_.events_sent;
  }
}

void SnipeDaemon::TaskEntry::exited(std::int64_t code) {
  exit_code = code;
  daemon->set_state(*this, TaskState::exited);
}

void SnipeDaemon::TaskEntry::failed(const std::string& why) {
  daemon->set_state(*this, TaskState::failed, why);
}

void SnipeDaemon::TaskEntry::set_comm_port(std::uint16_t port) {
  comm_port = port;
  daemon->rc_.add(task_urn, rcds::names::kProcAddress,
                  "snipe://" + daemon->host_.name() + ":" + std::to_string(port) + "/task",
                  [](Result<void>) {});
}

void SnipeDaemon::spawn(const SpawnRequest& request, const simnet::Address& spawner,
                        std::function<void(Result<SpawnReply>)> done) {
  if (auto auth = check_authorization(request); !auth) {
    ++stats_.spawns_rejected;
    log_.warn("spawn of ", request.program, " rejected: ", auth.error().to_string());
    done(auth.error());
    return;
  }
  spawn_preauthorized(request, spawner, std::move(done));
}

void SnipeDaemon::spawn_preauthorized(const SpawnRequest& request,
                                      const simnet::Address& spawner,
                                      std::function<void(Result<SpawnReply>)> done) {
  if (auto env = check_environment(request); !env) {
    ++stats_.spawns_rejected;
    done(env.error());
    return;
  }

  auto entry = std::make_shared<TaskEntry>();
  entry->daemon = this;
  std::string instance = request.name.empty()
                             ? host_.name() + "-" + std::to_string(next_task_seq_++)
                             : request.name;
  entry->task_urn = process_urn(instance);
  entry->spawner = spawner;
  if (tasks_.count(entry->task_urn)) {
    ++stats_.spawns_rejected;
    done(Error{Errc::already_exists, entry->task_urn});
    return;
  }

  const bool is_mobile_code =
      starts_with(request.program, "lifn://") || !request.restore_lifn.empty();
  if (is_mobile_code) {
    spawn_vm(request, std::move(entry), std::move(done));
    return;
  }

  auto it = programs_.find(request.program);
  if (it == programs_.end()) {
    ++stats_.spawns_rejected;
    done(Error{Errc::not_found, "no such program " + request.program});
    return;
  }
  auto task = it->second(request, *entry);
  if (!task) {
    ++stats_.spawns_rejected;
    done(task.error());
    return;
  }
  entry->task = std::move(task).take();
  finish_spawn(std::move(entry), std::move(done));
}

void SnipeDaemon::spawn_vm(const SpawnRequest& request, std::shared_ptr<TaskEntry> entry,
                           std::function<void(Result<SpawnReply>)> done) {
  auto instantiate = [this, entry, done, args = request.args](
                         Result<playground::Vm> vm) mutable {
    if (!vm) {
      ++stats_.spawns_rejected;
      done(vm.error());
      return;
    }
    auto task = std::make_unique<VmManagedTask>(engine_, std::move(vm).take(), *entry);
    for (auto a : args) task->push_input(a);
    entry->task = std::move(task);
    finish_spawn(entry, std::move(done));
  };

  if (!request.restore_lifn.empty()) {
    // Restart / migration arrival: state comes from a checkpoint file.
    files_.read(request.restore_lifn,
                [instantiate = std::move(instantiate)](Result<Bytes> snapshot) mutable {
                  if (!snapshot) {
                    instantiate(snapshot.error());
                    return;
                  }
                  auto vm = playground::Vm::restore(snapshot.value());
                  if (!vm) {
                    instantiate(vm.error());
                    return;
                  }
                  instantiate(std::move(vm).take());
                });
    return;
  }
  playground_.load(request.program, std::move(instantiate));
}

void SnipeDaemon::finish_spawn(std::shared_ptr<TaskEntry> entry,
                               std::function<void(Result<SpawnReply>)> done) {
  tasks_[entry->task_urn] = entry;
  ++stats_.spawns_ok;
  // Register the process metadata (§5.5: "create a distinguished URL for
  // the process and associate the per-process RC metadata with that URL.
  // This makes the new process globally visible").
  rc_.apply(entry->task_urn,
            {rcds::op_set(rcds::names::kProcHost, host_.name()),
             rcds::op_set(rcds::names::kProcState, task_state_name(TaskState::starting)),
             rcds::op_set(rcds::names::kProcSupervisor, host_url())},
            [](Result<std::vector<rcds::Assertion>>) {});
  // §3.7: "the SNIPE processes which were initiated by the SNIPE daemon on
  // any particular host are registered in metadata associated with that
  // host" — what consoles enumerate.
  rc_.add(host_url(), rcds::names::kHostTask, entry->task_urn, [](Result<void>) {});
  entry->task->start();
  set_state(*entry, TaskState::running);
  done(SpawnReply{entry->task_urn, host_.name(), entry->comm_port});
}

}  // namespace snipe::daemon
