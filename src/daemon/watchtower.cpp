#include "daemon/watchtower.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace snipe::daemon {

Watchtower::Watchtower(simnet::Host& host, WatchtowerConfig config)
    : host_(host),
      engine_(host.engine()),
      series_({&host.metrics()}),
      alerts_({host.name(), &host.flight()}) {
  alerts_.add_rules(config.rules.empty() ? obs::AlertEngine::builtin_rules() : config.rules);
  // The world's route epoch plus this host's own NICs: a tick costs
  // O(own NICs), and a link.<net>.<node>.* series names only this node.
  simnet::World* world = host_.world();
  simnet::Host* self = &host_;
  series_.add_sampler([world, self](std::int64_t now, obs::SeriesStore& store) {
    store.record("world.route_epoch", now, static_cast<double>(world->route_epoch()));
    for (const auto& nic : self->nics()) {
      const std::string base = "link." + nic->network()->name() + "." + self->name();
      store.record(base + ".busy_ns", now, static_cast<double>(nic->busy_ns()));
      SimTime free_at = nic->next_free();
      store.record(base + ".queue_ns", now,
                   static_cast<double>(std::max<SimTime>(0, free_at - now)));
    }
  });
}

void Watchtower::start() {
  if (running_) return;
  running_ = true;
  engine_.schedule_weak(kScrapePeriod, [this] { tick(); });
}

void Watchtower::tick() {
  if (!running_) return;
  engine_.schedule_weak(kScrapePeriod, [this] { tick(); });
  // A crashed host observes nothing — its series freeze, which is exactly
  // the signal the fleet-side staleness rule keys on.
  if (!host_.up()) return;
  std::int64_t now = engine_.now();
  series_.scrape(now);
  alerts_.evaluate(series_, now);
}

}  // namespace snipe::daemon
