// A miniature MPI implementation ("vendor MPI" stand-in for §6.1).
//
// PVMPI/MPI_Connect bridge *between* vendor MPI implementations running on
// different MPPs.  To reproduce that experiment we need an MPI to bridge:
// MpiWorld models one MPP's MPI_COMM_WORLD — one rank per host on the
// machine's internal interconnect (typically a myrinet-class network), with
// tag/source matching, wildcard receives, and the collectives the examples
// use.  Message transport is SRUDP on the internal network, standing in
// for the vendor's optimized transport.
//
// The API is callback-based (this is a discrete-event simulation): recv
// posts a request that completes when a matching message arrives.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "transport/srudp.hpp"
#include "util/codec.hpp"

namespace snipe::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

class MpiWorld;

struct MpiMessage {
  std::int32_t source = 0;
  std::int32_t tag = 0;
  Bytes data;

  template <class Io>
  void fields(Io& io) {
    io(source, tag, data);
  }
};

/// One rank of an MpiWorld.
class MpiRank {
 public:
  using RecvHandler = std::function<void(MpiMessage)>;
  using DoneHandler = std::function<void()>;

  int rank() const { return rank_; }
  int size() const;

  /// Eager reliable send (buffered by the transport; no rendezvous).
  void send(int dst, int tag, Bytes data);

  /// Posts a one-shot receive; completes when a message matching (src,
  /// tag) arrives (wildcards: kAnySource / kAnyTag).  Unexpected messages
  /// queue until matched, MPI-style.
  void recv(int src, int tag, RecvHandler handler);

  /// Linear-tree collectives, enough for the §6.1 workloads.
  void barrier(DoneHandler done);
  void bcast(int root, Bytes data, RecvHandler done);
  /// Sum-reduction of one i64 to root (handler fires at root only).
  void allreduce_sum(std::int64_t value, std::function<void(std::int64_t)> done);
  /// Gathers every rank's contribution at `root`; the handler fires at the
  /// root only, with contributions indexed by rank.
  void gather(int root, Bytes contribution,
              std::function<void(std::vector<Bytes>)> done);
  /// Scatters `pieces[r]` (root only) to each rank r; the handler fires at
  /// every rank with its piece.
  void scatter(int root, std::vector<Bytes> pieces,
               std::function<void(Bytes)> done);

  /// The simnet address of this rank's endpoint (used by the bridges).
  simnet::Address address() const { return endpoint_->address(); }
  transport::SrudpEndpoint& endpoint() { return *endpoint_; }
  MpiWorld& world() { return *world_; }

 private:
  friend class MpiWorld;
  struct PostedRecv {
    int src;
    int tag;
    RecvHandler handler;
  };

  MpiRank(MpiWorld* world, int rank, simnet::Host& host);
  void on_message(const simnet::Address& from, Payload wire);
  bool matches(const PostedRecv& posted, const MpiMessage& msg) const {
    return (posted.src == kAnySource || posted.src == msg.source) &&
           (posted.tag == kAnyTag || posted.tag == msg.tag);
  }

  MpiWorld* world_;
  int rank_;
  std::unique_ptr<transport::SrudpEndpoint> endpoint_;
  std::deque<MpiMessage> unexpected_;
  std::deque<PostedRecv> posted_;
  // collective state
  int barrier_arrivals_ = 0;
  std::vector<DoneHandler> barrier_waiters_;
  std::int64_t reduce_acc_ = 0;
  int reduce_arrivals_ = 0;
  std::vector<Bytes> gather_parts_;
  int gather_arrivals_ = 0;
};

/// One MPP's MPI_COMM_WORLD.
class MpiWorld {
 public:
  /// `hosts`: one rank is created per host (they should share the MPP's
  /// internal network).  `name` is the application name used by bridges.
  MpiWorld(std::string name, const std::vector<simnet::Host*>& hosts);

  const std::string& name() const { return name_; }
  int size() const { return static_cast<int>(ranks_.size()); }
  MpiRank& rank(int r) { return *ranks_.at(static_cast<std::size_t>(r)); }
  simnet::Engine& engine() { return *engine_; }

 private:
  friend class MpiRank;
  std::string name_;
  simnet::Engine* engine_;
  std::vector<std::unique_ptr<MpiRank>> ranks_;
};

}  // namespace snipe::mpi
