// PVM-lite: the slice of PVM that PVMPI depends on (§2.2, §6.1).
//
// PVM routes inter-host task messages through per-host daemons (pvmds) by
// default, and keeps its name service and host table on the *master* pvmd
// — the centralized designs §2.2 criticizes ("PVM can tolerate slave
// failures but not failure of its master host", "centralized decision
// making").  We reproduce the parts PVMPI needs:
//
//   * a master pvmd holding the host table and the global name registry;
//   * slave pvmds that enroll with the master;
//   * tasks that enroll with their local pvmd and get a PVM task id
//     (tid = daemon index << 16 | local index, as in real PVM);
//   * pvm_send routed task -> local pvmd -> destination pvmd -> task
//     (the default store-and-forward route whose extra hops MPI_Connect
//     eliminates — the §6.1 performance comparison);
//   * name registration/lookup against the master.
#pragma once

#include <map>
#include <memory>

#include "transport/rpc.hpp"
#include "util/codec.hpp"

namespace snipe::pvm {

namespace tags {
inline constexpr std::uint32_t kDaemonJoin = 160;  ///< slave pvmd -> master
inline constexpr std::uint32_t kEnroll = 161;      ///< task -> local pvmd
inline constexpr std::uint32_t kRegister = 162;    ///< name -> tid (master)
inline constexpr std::uint32_t kLookup = 163;
inline constexpr std::uint32_t kRoute = 164;       ///< routed message hop
inline constexpr std::uint32_t kDaemonAddr = 165;  ///< daemon index -> address
}  // namespace tags

struct PvmStats {
  std::uint64_t routed = 0;          ///< messages this pvmd forwarded
  std::uint64_t names_registered = 0;
  std::uint64_t lookups = 0;
};

class PvmDaemon {
 public:
  static constexpr std::uint16_t kDefaultPort = 7400;

  /// Master constructor (daemon index 0).
  explicit PvmDaemon(simnet::Host& host, std::uint16_t port = kDefaultPort);
  /// Slave constructor: joins the virtual machine at `master`.
  PvmDaemon(simnet::Host& host, const simnet::Address& master,
            std::uint16_t port = kDefaultPort);

  simnet::Address address() const { return rpc_.address(); }
  bool is_master() const { return master_ == nullptr; }
  int daemon_index() const { return index_; }
  bool joined() const { return index_ >= 0; }

  const PvmStats& stats() const { return stats_; }
  transport::RpcEndpoint& rpc() { return rpc_; }

 private:
  friend class PvmTask;
  void serve();
  void route(const Payload& wire);
  void deliver_local(int tid, const Payload& wire);
  void resolve_daemon(int index, std::function<void(Result<simnet::Address>)> done);

  transport::RpcEndpoint rpc_;
  simnet::Engine& engine_;
  std::unique_ptr<simnet::Address> master_;  ///< null on the master itself
  int index_ = -1;                           ///< assigned by the master
  int next_local_ = 1;
  std::map<int, simnet::Address> local_tasks_;       ///< local tid -> task port
  std::map<int, simnet::Address> daemon_table_;      ///< index -> pvmd (master: authoritative)
  std::map<std::string, int> names_;                 ///< master-only name registry
  int next_daemon_index_ = 1;                        ///< master-only
  PvmStats stats_;
  Logger log_;
};

/// A PVM task: enrolled with the pvmd on its own host.
class PvmTask {
 public:
  using Handler = std::function<void(int src_tid, int tag, Bytes data)>;

  /// Enrolls with the local daemon; `ready` fires with the assigned tid.
  PvmTask(simnet::Host& host, PvmDaemon& local_daemon,
          std::function<void(Result<int>)> ready);

  int tid() const { return tid_; }
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// pvm_send: routed through the daemons (the default PVM route).
  void send(int dst_tid, int tag, Bytes data);

  /// pvm_register / pvm_lookup against the master's name table.
  void register_name(const std::string& name, std::function<void(Result<void>)> done);
  void lookup(const std::string& name, std::function<void(Result<int>)> done);

  simnet::Address address() const { return rpc_.address(); }

 private:
  transport::RpcEndpoint rpc_;
  PvmDaemon& daemon_;
  int tid_ = 0;
  Handler handler_;
  Logger log_;
};

/// Wire form of a routed PVM message (constant across all three hops).
struct PvmEnvelope {
  std::int32_t src_tid = 0;
  std::int32_t dst_tid = 0;
  std::int32_t tag = 0;
  Bytes data;

  template <class Io>
  void fields(Io& io) {
    io(src_tid, dst_tid, tag, data);
  }
};

}  // namespace snipe::pvm
