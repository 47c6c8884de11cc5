#include "daemon/watchtower.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace snipe::daemon {

Watchtower::Watchtower(simnet::Host& host)
    : host_(host),
      engine_(host.engine()),
      series_({&host.metrics()}),
      alerts_({&host.flight()}) {
  alerts_.add_rules(obs::AlertEngine::builtin_rules());
}

void Watchtower::start() {
  if (running_) return;
  running_ = true;
  engine_.schedule_weak(kScrapePeriod, [this] { tick(); });
}

void Watchtower::tick() {
  if (!running_) return;
  engine_.schedule_weak(kScrapePeriod, [this] { tick(); });
  // A crashed host observes nothing: its series freeze and its exporter
  // goes quiet, and the collector judges that silence from beacon arrivals.
  if (!host_.up()) return;
  std::int64_t now = engine_.now();
  series_.scrape(now);
  // The world's route epoch plus this host's own NICs: a tick costs
  // O(own NICs), and a link.<net>.<node>.* series names only this node.
  series_.record("world.route_epoch", now,
                 static_cast<double>(host_.world()->route_epoch()));
  for (const auto& nic : host_.nics()) {
    const std::string base = "link." + nic->network()->name() + "." + host_.name();
    series_.record(base + ".busy_ns", now, static_cast<double>(nic->busy_ns()));
    series_.record(base + ".queue_ns", now,
                   static_cast<double>(std::max<SimTime>(0, nic->next_free() - now)));
  }
  alerts_.evaluate(series_, now);
}

}  // namespace snipe::daemon
