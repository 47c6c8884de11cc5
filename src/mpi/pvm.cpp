#include "mpi/pvm.hpp"

namespace snipe::pvm {

PvmDaemon::PvmDaemon(simnet::Host& host, std::uint16_t port)
    : rpc_(host, port, {}),
      engine_(host.engine()),
      index_(0),
      log_("pvmd-master@" + host.name(), host.clock()) {
  daemon_table_[0] = address();
  serve();
}

PvmDaemon::PvmDaemon(simnet::Host& host, const simnet::Address& master, std::uint16_t port)
    : rpc_(host, port, {}),
      engine_(host.engine()),
      master_(std::make_unique<simnet::Address>(master)),
      log_("pvmd@" + host.name(), host.clock()) {
  serve();
  rpc_.call(master, tags::kDaemonJoin, encode(address()), [this](Result<Payload> r) {
    if (!r) {
      log_.error("failed to join virtual machine: ", r.error().to_string());
      return;
    }
    auto index = decode<std::int32_t>(r.value());
    if (index) index_ = index.value();
    log_.debug("joined as daemon ", index_);
  });
}

void PvmDaemon::serve() {
  rpc_.serve(tags::kDaemonJoin,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master()) return Result<Bytes>(Errc::state_error, "not the master");
               auto joiner = decode<simnet::Address>(body);
               if (!joiner) return Error{Errc::corrupt, "bad join"};
               std::int32_t index = next_daemon_index_++;
               daemon_table_[index] = joiner.value();
               return encode(index);
             });

  rpc_.serve(tags::kEnroll,
             [this](const simnet::Address& from, const Payload& body) -> Result<Bytes> {
               auto port = decode<std::uint16_t>(body);
               if (!port) return port.error();
               if (index_ < 0) return Result<Bytes>(Errc::state_error, "pvmd not joined yet");
               std::int32_t tid = (index_ << 16) | next_local_++;
               local_tasks_[tid] = simnet::Address{from.host, port.value()};
               return encode(tid);
             });

  rpc_.serve(tags::kRegister,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master())
                 return Result<Bytes>(Errc::state_error, "names live on the master pvmd");
               auto name = decode<std::pair<std::string, std::int32_t>>(body);
               if (!name) return Error{Errc::corrupt, "bad register"};
               names_[name.value().first] = name.value().second;
               ++stats_.names_registered;
               return Bytes{};
             });

  rpc_.serve(tags::kLookup,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master())
                 return Result<Bytes>(Errc::state_error, "names live on the master pvmd");
               auto name = decode<std::string>(body);
               if (!name) return name.error();
               ++stats_.lookups;
               auto it = names_.find(name.value());
               if (it == names_.end()) return Result<Bytes>(Errc::not_found, name.value());
               return encode(it->second);
             });

  rpc_.serve(tags::kDaemonAddr,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master()) return Result<Bytes>(Errc::state_error, "not the master");
               auto index = decode<std::int32_t>(body);
               if (!index) return index.error();
               auto it = daemon_table_.find(index.value());
               if (it == daemon_table_.end())
                 return Result<Bytes>(Errc::not_found, "no such daemon");
               return encode(it->second);
             });

  rpc_.on_notify(tags::kRoute,
                 [this](const simnet::Address&, const Payload& body) { route(body); });
}

void PvmDaemon::resolve_daemon(int index, std::function<void(Result<simnet::Address>)> done) {
  auto it = daemon_table_.find(index);
  if (it != daemon_table_.end()) {
    done(it->second);
    return;
  }
  if (is_master()) {
    done(Result<simnet::Address>(Errc::not_found, "unknown daemon index"));
    return;
  }
  rpc_.call(*master_, tags::kDaemonAddr, encode(index),
            [this, index, done = std::move(done)](Result<Payload> r) {
              if (!r) {
                done(r.error());
                return;
              }
              auto addr = decode<simnet::Address>(r.value());
              if (!addr) {
                done(Error{Errc::corrupt, "bad daemon address"});
                return;
              }
              daemon_table_[index] = addr.value();
              done(addr);
            });
}

void PvmDaemon::route(const Payload& wire) {
  auto env = decode<PvmEnvelope>(wire);
  if (!env) return;
  ++stats_.routed;
  int dst_daemon = env.value().dst_tid >> 16;
  if (dst_daemon == index_) {
    deliver_local(env.value().dst_tid, wire);
    return;
  }
  resolve_daemon(dst_daemon, [this, wire](Result<simnet::Address> addr) {
    if (!addr) {
      log_.warn("cannot route: ", addr.error().to_string());
      return;
    }
    rpc_.notify(addr.value(), tags::kRoute, wire);
  });
}

void PvmDaemon::deliver_local(int tid, const Payload& wire) {
  auto it = local_tasks_.find(tid);
  if (it == local_tasks_.end()) {
    log_.warn("no local task ", tid);
    return;
  }
  rpc_.notify(it->second, tags::kRoute, wire);
}

PvmTask::PvmTask(simnet::Host& host, PvmDaemon& local_daemon,
                 std::function<void(Result<int>)> ready)
    : rpc_(host, 0, {}), daemon_(local_daemon), log_("pvmtask@" + host.name(), host.clock()) {
  rpc_.on_notify(tags::kRoute, [this](const simnet::Address&, const Payload& body) {
    auto env = decode<PvmEnvelope>(body);
    if (!env) return;
    if (handler_)
      handler_(env.value().src_tid, env.value().tag, std::move(env.value().data));
  });
  rpc_.call(daemon_.address(), tags::kEnroll, encode(rpc_.address().port),
            [this, ready = std::move(ready)](Result<Payload> r) {
              if (!r) {
                ready(r.error());
                return;
              }
              auto tid = decode<std::int32_t>(r.value());
              if (!tid) {
                ready(tid.error());
                return;
              }
              tid_ = tid.value();
              ready(tid_);
            });
}

void PvmTask::send(int dst_tid, int tag, Bytes data) {
  // Default PVM route: every message goes through the local pvmd.
  PvmEnvelope env{tid_, dst_tid, tag, std::move(data)};
  rpc_.notify(daemon_.address(), tags::kRoute, encode(env));
}

void PvmTask::register_name(const std::string& name, std::function<void(Result<void>)> done) {
  // Registration always targets the master pvmd ("global registration of
  // well-known services", §2.2) — routed via our daemon's knowledge of it.
  simnet::Address master =
      daemon_.is_master() ? daemon_.address() : *daemon_.master_;
  rpc_.call(master, tags::kRegister, encode(name, tid_),
            [done = std::move(done)](Result<Payload> r) {
              if (!r)
                done(r.error());
              else
                done(ok_result());
            });
}

void PvmTask::lookup(const std::string& name, std::function<void(Result<int>)> done) {
  simnet::Address master =
      daemon_.is_master() ? daemon_.address() : *daemon_.master_;
  rpc_.call(master, tags::kLookup, encode(name),
            [done = std::move(done)](Result<Payload> r) {
              if (!r) {
                done(r.error());
                return;
              }
              auto tid = decode<std::int32_t>(r.value());
              if (!tid) {
                done(tid.error());
                return;
              }
              done(tid.value());
            });
}

}  // namespace snipe::pvm
