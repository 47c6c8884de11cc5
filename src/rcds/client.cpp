#include "rcds/client.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"

namespace snipe::rcds {

namespace {
/// Parses the master address out of a single-master referral error
/// ("single-master: write at host:port").
Result<simnet::Address> referral_target(const std::string& message) {
  auto at = message.rfind(" at ");
  if (at == std::string::npos) return Error{Errc::corrupt, "no referral address"};
  std::string hostport = message.substr(at + 4);
  auto colon = hostport.rfind(':');
  if (colon == std::string::npos) return Error{Errc::corrupt, "no referral port"};
  return simnet::Address{hostport.substr(0, colon),
                         static_cast<std::uint16_t>(std::stoi(hostport.substr(colon + 1)))};
}
}  // namespace

RcClient::RcClient(transport::RpcEndpoint& rpc, std::vector<simnet::Address> replicas,
                   RcClientConfig config)
    : rpc_(rpc), replicas_(std::move(replicas)), config_(config) {
  assert(!replicas_.empty() && "RcClient needs at least one replica");
  fails_.assign(replicas_.size(), 0);
  stats_source_ = rpc_.host().metrics().add_stats([this](obs::StatsSink& s) {
    s.add("rcds.client.lookups", stats_.lookups);
    s.add("rcds.client.writes", stats_.writes);
    s.add("rcds.client.failovers", stats_.failovers);
    s.add("rcds.client.failures", stats_.failures);
  });
}

std::size_t RcClient::healthiest() const {
  std::size_t best = preferred_ % replicas_.size();
  int best_fails = fails_[best];
  for (std::size_t i = 0; i < replicas_.size(); ++i)
    if (fails_[i] < best_fails) {
      best = i;
      best_fails = fails_[i];
    }
  return best;
}

void RcClient::get(const std::string& uri, AssertionsHandler done) {
  ++stats_.lookups;
  attempt(tags::kGet, encode(uri), healthiest(), static_cast<int>(replicas_.size()),
          std::move(done));
}

void RcClient::apply(const std::string& uri, std::vector<Op> ops, AssertionsHandler done) {
  ++stats_.writes;
  attempt(tags::kApply, encode(ApplyRequest{uri, std::move(ops)}), healthiest(),
          static_cast<int>(replicas_.size()), std::move(done));
}

void RcClient::attempt(std::uint32_t tag, Bytes body, std::size_t replica_index,
                       int tries_left, AssertionsHandler done) {
  const simnet::Address replica = replicas_[replica_index % replicas_.size()];
  std::weak_ptr<char> alive = alive_;
  rpc_.call(
      replica, tag, body,
      [this, alive, tag, body, replica_index, tries_left,
       done](Result<Payload> response) mutable {
        if (alive.expired()) {
          // The client died mid-call (owner migrated/shut down).  Deliver
          // the outcome — `done` owns everything it needs — but touch no
          // member and never retry through the dead endpoint.
          if (!response) {
            done(response.error());
          } else if (auto update = decode<Update>(response.value()); !update) {
            done(update.error());
          } else {
            done(std::move(update.value().assertions));
          }
          return;
        }
        const std::size_t idx = replica_index % replicas_.size();
        if (!response) {
          if (response.code() == Errc::state_error) {
            // Single-master referral: retry once directly at the master.
            // (Not a health strike — the follower answered promptly.)
            if (auto master = referral_target(response.error().message); master.ok()) {
              rpc_.call(
                  master.value(), tag, body,
                  [this, alive, done](Result<Payload> r2) {
                    if (!r2) {
                      if (!alive.expired()) ++stats_.failures;
                      done(r2.error());
                      return;
                    }
                    auto update = decode<Update>(r2.value());
                    if (!update) {
                      done(update.error());
                      return;
                    }
                    done(std::move(update.value().assertions));
                  },
                  config_.try_timeout);
              return;
            }
          }
          fails_[idx] = std::min(fails_[idx] + 1, 8);
          if (tries_left > 1) {
            ++stats_.failovers;
            rpc_.host().tracer().instant(
                rpc_.engine().now(), "rcds", "rcds.client_failover",
                {{"from", replicas_[idx].to_string()}});
            preferred_ = (replica_index + 1) % replicas_.size();
            attempt(tag, std::move(body), replica_index + 1, tries_left - 1, std::move(done));
          } else {
            ++stats_.failures;
            done(response.error());
          }
          return;
        }
        // Success: this replica is healthy and sticky; decay the others'
        // strikes so a recovered replica is re-probed eventually.
        preferred_ = idx;
        fails_[idx] = 0;
        for (std::size_t i = 0; i < fails_.size(); ++i)
          if (i != idx && fails_[i] > 0) --fails_[i];
        auto update = decode<Update>(response.value());
        if (!update) {
          done(update.error());
          return;
        }
        done(std::move(update.value().assertions));
      },
      config_.try_timeout);
}

void RcClient::lookup(const std::string& uri, const std::string& name, ValuesHandler done) {
  get(uri, [name, done](Result<std::vector<Assertion>> r) {
    if (!r) {
      done(r.error());
      return;
    }
    std::vector<std::string> values;
    for (const auto& a : r.value())
      if (a.name == name) values.push_back(a.value);
    done(std::move(values));
  });
}

namespace {
RcClient::AssertionsHandler discard_to(RcClient::DoneHandler done) {
  return [done = std::move(done)](Result<std::vector<Assertion>> r) {
    if (!r)
      done(r.error());
    else
      done(ok_result());
  };
}
}  // namespace

void RcClient::set(const std::string& uri, const std::string& name, const std::string& value,
                   DoneHandler done) {
  apply(uri, {op_set(name, value)}, discard_to(std::move(done)));
}

void RcClient::add(const std::string& uri, const std::string& name, const std::string& value,
                   DoneHandler done) {
  apply(uri, {op_add(name, value)}, discard_to(std::move(done)));
}

void RcClient::remove(const std::string& uri, const std::string& name,
                      const std::string& value, DoneHandler done) {
  apply(uri, {op_remove(name, value)}, discard_to(std::move(done)));
}

}  // namespace snipe::rcds
