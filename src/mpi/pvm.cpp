#include "mpi/pvm.hpp"

namespace snipe::pvm {

Bytes PvmEnvelope::encode() const {
  ByteWriter w;
  w.i32(src_tid);
  w.i32(dst_tid);
  w.i32(tag);
  w.blob(data);
  return std::move(w).take();
}

Result<PvmEnvelope> PvmEnvelope::decode(const Bytes& wire) {
  ByteReader r(wire);
  PvmEnvelope env;
  auto src = r.i32();
  if (!src) return src.error();
  env.src_tid = src.value();
  auto dst = r.i32();
  if (!dst) return dst.error();
  env.dst_tid = dst.value();
  auto tag = r.i32();
  if (!tag) return tag.error();
  env.tag = tag.value();
  auto data = r.blob();
  if (!data) return data.error();
  env.data = std::move(data).take();
  return env;
}

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
  ByteWriter w;
  w.str(address().host);
  w.u16(address().port);
  rpc_.call(master, tags::kDaemonJoin, std::move(w).take(), [this](Result<Payload> r) {
    if (!r) {
      log_.error("failed to join virtual machine: ", r.error().to_string());
      return;
    }
    PayloadCursor reader(r.value());
    auto index = reader.i32();
    if (index) index_ = index.value();
    log_.debug("joined as daemon ", index_);
  });
}

void PvmDaemon::serve() {
  rpc_.serve(tags::kDaemonJoin,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master()) return Result<Bytes>(Errc::state_error, "not the master");
               PayloadCursor r(body);
               auto host = r.str();
               auto port = r.u16();
               if (!host || !port) return Error{Errc::corrupt, "bad join"};
               int index = next_daemon_index_++;
               daemon_table_[index] = simnet::Address{host.value(), port.value()};
               ByteWriter w;
               w.i32(index);
               return std::move(w).take();
             });

  rpc_.serve(tags::kEnroll,
             [this](const simnet::Address& from, const Payload& body) -> Result<Bytes> {
               PayloadCursor r(body);
               auto port = r.u16();
               if (!port) return port.error();
               if (index_ < 0) return Result<Bytes>(Errc::state_error, "pvmd not joined yet");
               int tid = (index_ << 16) | next_local_++;
               local_tasks_[tid] = simnet::Address{from.host, port.value()};
               ByteWriter w;
               w.i32(tid);
               return std::move(w).take();
             });

  rpc_.serve(tags::kRegister,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master())
                 return Result<Bytes>(Errc::state_error, "names live on the master pvmd");
               PayloadCursor r(body);
               auto name = r.str();
               auto tid = r.i32();
               if (!name || !tid) return Error{Errc::corrupt, "bad register"};
               names_[name.value()] = tid.value();
               ++stats_.names_registered;
               return Bytes{};
             });

  rpc_.serve(tags::kLookup,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master())
                 return Result<Bytes>(Errc::state_error, "names live on the master pvmd");
               PayloadCursor r(body);
               auto name = r.str();
               if (!name) return name.error();
               ++stats_.lookups;
               auto it = names_.find(name.value());
               if (it == names_.end()) return Result<Bytes>(Errc::not_found, name.value());
               ByteWriter w;
               w.i32(it->second);
               return std::move(w).take();
             });

  rpc_.serve(tags::kDaemonAddr,
             [this](const simnet::Address&, const Payload& body) -> Result<Bytes> {
               if (!is_master()) return Result<Bytes>(Errc::state_error, "not the master");
               PayloadCursor r(body);
               auto index = r.i32();
               if (!index) return index.error();
               auto it = daemon_table_.find(index.value());
               if (it == daemon_table_.end())
                 return Result<Bytes>(Errc::not_found, "no such daemon");
               ByteWriter w;
               w.str(it->second.host);
               w.u16(it->second.port);
               return std::move(w).take();
             });

  rpc_.on_notify(tags::kRoute,
                 [this](const simnet::Address&, const Payload& body) { route(body.to_bytes()); });
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
  ByteWriter w;
  w.i32(index);
  rpc_.call(*master_, tags::kDaemonAddr, std::move(w).take(),
            [this, index, done = std::move(done)](Result<Payload> r) {
              if (!r) {
                done(r.error());
                return;
              }
              PayloadCursor reader(r.value());
              auto host = reader.str();
              auto port = reader.u16();
              if (!host || !port) {
                done(Error{Errc::corrupt, "bad daemon address"});
                return;
              }
              simnet::Address addr{host.value(), port.value()};
              daemon_table_[index] = addr;
              done(addr);
            });
}

void PvmDaemon::route(const Bytes& wire) {
  auto env = PvmEnvelope::decode(wire);
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

void PvmDaemon::deliver_local(int tid, const Bytes& wire) {
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
    auto env = PvmEnvelope::decode(body.to_bytes());
    if (!env) return;
    if (handler_)
      handler_(env.value().src_tid, env.value().tag, std::move(env.value().data));
  });
  ByteWriter w;
  w.u16(rpc_.address().port);
  rpc_.call(daemon_.address(), tags::kEnroll, std::move(w).take(),
            [this, ready = std::move(ready)](Result<Payload> r) {
              if (!r) {
                ready(r.error());
                return;
              }
              PayloadCursor reader(r.value());
              auto tid = reader.i32();
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
  rpc_.notify(daemon_.address(), tags::kRoute, env.encode());
}

void PvmTask::register_name(const std::string& name, std::function<void(Result<void>)> done) {
  // Registration always targets the master pvmd ("global registration of
  // well-known services", §2.2) — routed via our daemon's knowledge of it.
  simnet::Address master =
      daemon_.is_master() ? daemon_.address() : *daemon_.master_;
  ByteWriter w;
  w.str(name);
  w.i32(tid_);
  rpc_.call(master, tags::kRegister, std::move(w).take(),
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
  ByteWriter w;
  w.str(name);
  rpc_.call(master, tags::kLookup, std::move(w).take(),
            [done = std::move(done)](Result<Payload> r) {
              if (!r) {
                done(r.error());
                return;
              }
              PayloadCursor reader(r.value());
              auto tid = reader.i32();
              if (!tid) {
                done(tid.error());
                return;
              }
              done(tid.value());
            });
}

}  // namespace snipe::pvm
