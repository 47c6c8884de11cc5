#include "mpi/bridge.hpp"

#include "util/uri.hpp"

namespace snipe::mpi {

namespace {
constexpr std::uint32_t kInterTag = 170;  ///< MPI_Connect direct delivery
}

// ---------- PVMPI ----------

PvmpiPort::PvmpiPort(MpiRank& rank, const std::string& app_name, pvm::PvmDaemon& daemon,
                     std::function<void(Result<void>)> ready)
    : rank_(rank),
      app_name_(app_name),
      log_("pvmpi@" + app_name + "#" + std::to_string(rank.rank()),
           rank.endpoint().host().clock()) {
  task_ = std::make_unique<pvm::PvmTask>(
      // The PVM task lives on the same host as the MPI rank.
      *rank.endpoint().host().world()->host(rank.address().host), daemon,
      [this, ready = std::move(ready)](Result<int> tid) {
        if (!tid) {
          ready(tid.error());
          return;
        }
        task_->set_handler([this](int, int, Bytes data) {
          auto msg = decode<InterMessage>(data);
          if (msg && handler_) handler_(std::move(msg).take());
        });
        task_->register_name(port_name(app_name_, rank_.rank()),
                             [this, ready = std::move(ready)](Result<void> r) {
                               enrolled_ = r.ok();
                               auto backlog = std::move(backlog_);
                               backlog_.clear();
                               for (auto& [name, wire] : backlog) {
                                 // Re-issue sends queued before enrollment.
                                 task_->lookup(name, [this, wire = wire](Result<int> tid) {
                                   if (tid) task_->send(tid.value(), 0, wire);
                                 });
                               }
                               ready(r);
                             });
      });
}

void PvmpiPort::send(const std::string& remote_app, int remote_rank, int tag, Bytes data) {
  InterMessage msg{app_name_, rank_.rank(), tag, std::move(data)};
  Bytes wire = encode(msg);
  std::string name = port_name(remote_app, remote_rank);
  if (!enrolled_) {
    backlog_.emplace_back(name, std::move(wire));
    return;
  }
  auto it = tid_cache_.find(name);
  if (it != tid_cache_.end()) {
    task_->send(it->second, 0, std::move(wire));
    return;
  }
  task_->lookup(name, [this, name, wire = std::move(wire)](Result<int> tid) mutable {
    if (!tid) {
      log_.warn("lookup of ", name, " failed: ", tid.error().to_string());
      return;
    }
    tid_cache_[name] = tid.value();
    task_->send(tid.value(), 0, std::move(wire));
  });
}

// ---------- MPI_Connect ----------

MpiConnectPort::MpiConnectPort(MpiRank& rank, const std::string& app_name,
                               std::vector<simnet::Address> rc_replicas,
                               std::function<void(Result<void>)> ready)
    : rank_(rank),
      app_name_(app_name),
      log_("mpiconnect@" + app_name + "#" + std::to_string(rank.rank()),
           rank.endpoint().host().clock()) {
  simnet::Host* host = rank.endpoint().host().world()->host(rank.address().host);
  rpc_ = std::make_unique<transport::RpcEndpoint>(*host, 0);
  rc_ = std::make_unique<rcds::RcClient>(*rpc_, std::move(rc_replicas));
  rpc_->on_notify(kInterTag, [this](const simnet::Address&, const Payload& body) {
    auto msg = decode<InterMessage>(body);
    if (msg && handler_) handler_(std::move(msg).take());
  });
  // Register our endpoint under the port URN in the SNIPE registry: global
  // names with no virtual machine required.
  rc_->set(port_urn(app_name, rank.rank()), rcds::names::kProcAddress,
           "snipe://" + rpc_->address().host + ":" + std::to_string(rpc_->address().port) +
               "/mpi",
           [ready = std::move(ready)](Result<void> r) { ready(r); });
}

void MpiConnectPort::resolve(const std::string& urn,
                             std::function<void(Result<simnet::Address>)> done) {
  auto it = address_cache_.find(urn);
  if (it != address_cache_.end()) {
    done(it->second);
    return;
  }
  rc_->lookup(urn, rcds::names::kProcAddress,
              [this, urn, done = std::move(done)](Result<std::vector<std::string>> r) {
                if (!r) {
                  done(r.error());
                  return;
                }
                if (r.value().empty()) {
                  done(Result<simnet::Address>(Errc::not_found, urn));
                  return;
                }
                auto uri = snipe::parse_uri(r.value().front());
                if (!uri) {
                  done(uri.error());
                  return;
                }
                simnet::Address addr{uri.value().host,
                                     static_cast<std::uint16_t>(uri.value().port)};
                address_cache_[urn] = addr;
                done(addr);
              });
}

void MpiConnectPort::send(const std::string& remote_app, int remote_rank, int tag,
                          Bytes data) {
  InterMessage msg{app_name_, rank_.rank(), tag, std::move(data)};
  Bytes wire = encode(msg);
  resolve(port_urn(remote_app, remote_rank),
          [this, wire = std::move(wire)](Result<simnet::Address> addr) {
            if (!addr) {
              log_.warn("resolve failed: ", addr.error().to_string());
              return;
            }
            // Direct task-to-task delivery over SRUDP: no pvmd hops.
            rpc_->notify(addr.value(), kInterTag, wire);
          });
}

}  // namespace snipe::mpi
