#include "mpi/mpi.hpp"

#include <cassert>

namespace snipe::mpi {

namespace {
constexpr std::uint16_t kRankPortBase = 6000;
}  // namespace

MpiWorld::MpiWorld(std::string name, const std::vector<simnet::Host*>& hosts)
    : name_(std::move(name)) {
  assert(!hosts.empty());
  engine_ = &hosts.front()->engine();
  for (std::size_t i = 0; i < hosts.size(); ++i)
    ranks_.emplace_back(new MpiRank(this, static_cast<int>(i), *hosts[i]));
}

MpiRank::MpiRank(MpiWorld* world, int rank, simnet::Host& host) : world_(world), rank_(rank) {
  endpoint_ = std::make_unique<transport::SrudpEndpoint>(
      host, static_cast<std::uint16_t>(kRankPortBase + rank));
  endpoint_->set_handler([this](const simnet::Address& from, Payload wire) {
    on_message(from, std::move(wire));
  });
}

int MpiRank::size() const { return world_->size(); }

void MpiRank::send(int dst, int tag, Bytes data) {
  assert(dst >= 0 && dst < size());
  endpoint_->send(world_->rank(dst).address(), encode(MpiMessage{rank_, tag, std::move(data)}));
}

void MpiRank::on_message(const simnet::Address&, Payload wire) {
  auto decoded = decode<MpiMessage>(wire);  // the message may arrive in several segments
  if (!decoded) return;
  MpiMessage msg = std::move(decoded).take();

  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(*it, msg)) {
      auto handler = std::move(it->handler);
      posted_.erase(it);
      handler(std::move(msg));
      return;
    }
  }
  unexpected_.push_back(std::move(msg));
}

void MpiRank::recv(int src, int tag, RecvHandler handler) {
  PostedRecv posted{src, tag, std::move(handler)};
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(posted, *it)) {
      MpiMessage msg = std::move(*it);
      unexpected_.erase(it);
      posted.handler(std::move(msg));
      return;
    }
  }
  posted_.push_back(std::move(posted));
}

namespace {
/// Internal collective tags, outside the user range by convention.
constexpr int kBarrierTag = -1000;
constexpr int kBarrierReleaseTag = -1001;
constexpr int kBcastTag = -1002;
constexpr int kReduceTag = -1003;
constexpr int kReduceResultTag = -1004;
constexpr int kGatherTag = -1005;
constexpr int kScatterTag = -1006;
}  // namespace

void MpiRank::barrier(DoneHandler done) {
  // Linear barrier: everyone reports to rank 0; rank 0 releases everyone.
  if (rank_ == 0) {
    barrier_waiters_.push_back(std::move(done));
    auto check_release = [this] {
      if (barrier_arrivals_ < size() - 1) return;
      barrier_arrivals_ = 0;
      for (int r = 1; r < size(); ++r) send(r, kBarrierReleaseTag, {});
      auto waiters = std::move(barrier_waiters_);
      barrier_waiters_.clear();
      for (auto& w : waiters) w();
    };
    if (size() == 1) {
      check_release();
      return;
    }
    // Collect the size()-1 arrival messages.
    for (int i = 0; i < size() - 1; ++i) {
      recv(kAnySource, kBarrierTag, [this, check_release](MpiMessage) {
        ++barrier_arrivals_;
        check_release();
      });
    }
  } else {
    send(0, kBarrierTag, {});
    recv(0, kBarrierReleaseTag,
         [done = std::move(done)](MpiMessage) { done(); });
  }
}

void MpiRank::bcast(int root, Bytes data, RecvHandler done) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send(r, kBcastTag, data);
    done(MpiMessage{root, kBcastTag, std::move(data)});
  } else {
    recv(root, kBcastTag, std::move(done));
  }
}

void MpiRank::allreduce_sum(std::int64_t value, std::function<void(std::int64_t)> done) {
  // Reduce to rank 0 then broadcast the result.
  if (rank_ == 0) {
    reduce_acc_ = value;
    reduce_arrivals_ = 0;
    if (size() == 1) {
      done(reduce_acc_);
      return;
    }
    for (int i = 0; i < size() - 1; ++i) {
      recv(kAnySource, kReduceTag, [this, done](MpiMessage msg) {
        reduce_acc_ += decode<std::int64_t>(msg.data).value_or(0);
        if (++reduce_arrivals_ == size() - 1) {
          const Bytes result = encode(reduce_acc_);
          for (int dst = 1; dst < size(); ++dst) send(dst, kReduceResultTag, result);
          done(reduce_acc_);
        }
      });
    }
  } else {
    send(0, kReduceTag, encode(value));
    recv(0, kReduceResultTag, [done = std::move(done)](MpiMessage msg) {
      done(decode<std::int64_t>(msg.data).value_or(0));
    });
  }
}

void MpiRank::gather(int root, Bytes contribution,
                     std::function<void(std::vector<Bytes>)> done) {
  if (rank_ == root) {
    gather_parts_.assign(static_cast<std::size_t>(size()), Bytes{});
    gather_parts_[static_cast<std::size_t>(root)] = std::move(contribution);
    gather_arrivals_ = 0;
    if (size() == 1) {
      done(std::move(gather_parts_));
      return;
    }
    for (int i = 0; i < size() - 1; ++i) {
      recv(kAnySource, kGatherTag, [this, done](MpiMessage msg) {
        gather_parts_[static_cast<std::size_t>(msg.source)] = std::move(msg.data);
        if (++gather_arrivals_ == size() - 1) done(std::move(gather_parts_));
      });
    }
  } else {
    send(root, kGatherTag, std::move(contribution));
  }
}

void MpiRank::scatter(int root, std::vector<Bytes> pieces,
                      std::function<void(Bytes)> done) {
  if (rank_ == root) {
    assert(pieces.size() == static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r)
      if (r != root) send(r, kScatterTag, pieces[static_cast<std::size_t>(r)]);
    done(std::move(pieces[static_cast<std::size_t>(root)]));
  } else {
    recv(root, kScatterTag,
         [done = std::move(done)](MpiMessage msg) { done(std::move(msg.data)); });
  }
}

}  // namespace snipe::mpi
