// PVMPI and MPI_Connect: inter-MPI bridging (§6.1).
//
// Both bridges let rank r of MPI application A exchange tagged messages
// with rank s of application B running on a different MPP, using each
// machine's native MPI internally.  They differ in the substrate:
//
//   * PvmpiPort (PVMPI): each rank enrolls a PVM task with the local pvmd;
//     names resolve through the master pvmd; every message takes the
//     default PVM route, task -> local pvmd -> remote pvmd -> task.  This
//     is the system that "suffered from the need to provide access to a
//     PVM daemon pvmd at all times".
//
//   * MpiConnectPort (MPI_Connect): names resolve through the SNIPE RC
//     registry and messages travel *directly* between the ranks' endpoints
//     over SRUDP — "used SNIPE for name resolution and across host
//     communication instead of utilizing PVM ... no virtual machine to
//     disappear ... slightly higher point-to-point communication
//     performance".
//
// bench_mpiconnect quantifies the difference; both ports share InterPort.
#pragma once

#include "mpi/mpi.hpp"
#include "mpi/pvm.hpp"
#include "rcds/client.hpp"

namespace snipe::mpi {

/// A message from another MPI application.
struct InterMessage {
  std::string src_app;
  std::int32_t src_rank = 0;
  std::int32_t tag = 0;
  Bytes data;

  template <class Io>
  void fields(Io& io) {
    io(src_app, src_rank, tag, data);
  }
};

/// Common API of the two bridge implementations.
class InterPort {
 public:
  using Handler = std::function<void(InterMessage)>;
  virtual ~InterPort() = default;
  virtual void send(const std::string& remote_app, int remote_rank, int tag, Bytes data) = 0;
  void set_handler(Handler handler) { handler_ = std::move(handler); }

 protected:
  Handler handler_;
};

/// PVMPI: bridge through PVM-lite.
class PvmpiPort final : public InterPort {
 public:
  /// `daemon` must be the pvmd on this rank's host.  `ready` fires once
  /// the PVM enrollment and name registration complete.
  PvmpiPort(MpiRank& rank, const std::string& app_name, pvm::PvmDaemon& daemon,
            std::function<void(Result<void>)> ready);

  void send(const std::string& remote_app, int remote_rank, int tag, Bytes data) override;

 private:
  static std::string port_name(const std::string& app, int rank) {
    return app + "#" + std::to_string(rank);
  }

  MpiRank& rank_;
  std::string app_name_;
  std::unique_ptr<pvm::PvmTask> task_;
  std::map<std::string, int> tid_cache_;
  std::vector<std::pair<std::string, Bytes>> backlog_;  ///< pre-enrollment sends
  bool enrolled_ = false;
  Logger log_;
};

/// MPI_Connect: bridge through SNIPE.
class MpiConnectPort final : public InterPort {
 public:
  MpiConnectPort(MpiRank& rank, const std::string& app_name,
                 std::vector<simnet::Address> rc_replicas,
                 std::function<void(Result<void>)> ready);

  void send(const std::string& remote_app, int remote_rank, int tag, Bytes data) override;

 private:
  static std::string port_urn(const std::string& app, int rank) {
    return "urn:snipe:proc:mpi-" + app + "-" + std::to_string(rank);
  }
  void resolve(const std::string& urn, std::function<void(Result<simnet::Address>)> done);

  MpiRank& rank_;
  std::string app_name_;
  std::unique_ptr<transport::RpcEndpoint> rpc_;
  std::unique_ptr<rcds::RcClient> rc_;
  std::map<std::string, simnet::Address> address_cache_;
  Logger log_;
};

}  // namespace snipe::mpi
