#include "transport/multipath.hpp"

#include <algorithm>
#include <vector>

namespace snipe::transport {

const std::string& MultipathPolicy::preferred_name() const {
  static const std::string kDefault;
  return preferred_ == nullptr ? kDefault : preferred_->name();
}

bool MultipathPolicy::on_success(SimTime now) {
  consecutive_timeouts_ = 0;
  if (preferred_ == nullptr || now < 0) return false;
  if (last_timeout_ >= 0 && now - last_timeout_ < probe_quiet_) return false;
  // The detour has been quiet long enough: drop the explicit preference so
  // the next send re-probes the default (fastest) route.
  preferred_ = nullptr;
  ++probes_;  // the owning endpoint counts it (srudp.route_probes)
  return true;
}

bool MultipathPolicy::on_timeout(simnet::Host& host) {
  last_timeout_ = host.engine().now();
  ++consecutive_timeouts_;
  if (consecutive_timeouts_ < failover_threshold_) return false;
  consecutive_timeouts_ = 0;

  // The networks this host can transmit on, in name order.
  std::vector<const simnet::Network*> ups;
  for (const auto& nic : host.nics())
    if (nic->up() && nic->network()->up()) ups.push_back(nic->network());
  if (ups.empty()) return false;
  std::sort(ups.begin(), ups.end(), [](const simnet::Network* a, const simnet::Network* b) {
    return a->name() < b->name();
  });

  const simnet::Network* next = nullptr;
  if (preferred_ == nullptr) {
    // We were on the default (fastest) route; any explicit alternative that
    // differs from what simnet would pick is fine — take the first, and if
    // there is only one network there is nowhere to go.
    if (ups.size() < 2) return false;
    // The fastest network is simnet's default; prefer the *other* one so
    // the switch actually changes the path.  Rank by effective bandwidth.
    const simnet::Network* fastest = ups[0];
    double best = 0;
    for (const simnet::Network* net : ups) {
      const auto& m = net->model();
      double rate = m.bandwidth_bps * (1.0 - m.cell_tax);
      if (rate > best) {
        best = rate;
        fastest = net;
      }
    }
    for (const simnet::Network* net : ups) {
      if (net != fastest) {
        next = net;
        break;
      }
    }
    if (next == nullptr) return false;
  } else {
    // Rotate to the next up network after the current preference.
    auto it = std::find(ups.begin(), ups.end(), preferred_);
    std::size_t start = it == ups.end() ? 0 : (it - ups.begin() + 1) % ups.size();
    next = ups[start];
    if (next == preferred_) return false;
  }
  preferred_ = next;
  ++switches_;  // the owning endpoint counts and records it (srudp.route_switches)
  return true;
}

}  // namespace snipe::transport
