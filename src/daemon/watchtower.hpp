// The per-host watchtower: the networked wiring around obs' transport-free
// series/alert machinery (DESIGN.md §watchtower).
//
// A Watchtower owns one SeriesStore and one AlertEngine for a simulated
// host.  On a weak virtual-time timer (every second) it scrapes the host's
// own metrics registry (Host::metrics()) into the store, records the
// host's own NICs (busy time and egress queue depth) and the world route
// epoch — the signals a snapshot view cannot age — and evaluates the alert
// rules.  The NIC and epoch samples are relaxed atomic reads: observational
// data, deliberately outside the sharded replay contract.  A tick costs
// O(this host's instruments and NICs), never O(fleet).  The exporter ships
// the store's fresh points, and the host's alert transitions as flight
// entries, inside its ordinary telemetry beacons, so the collector holds
// fleet-wide history without any new protocol; it judges only silence.
//
// Determinism contract (same as the exporter's): the timer is weak, ticks
// are skipped while the host is down, scraping draws no RNG and sends no
// packets, and shipped series ride the exporter's beacons on management
// networks — seeded data-network replay digests are bit-identical with the
// watchtower on or off (ChaosWatch).
#pragma once

#include <cstdint>

#include "obs/alert.hpp"
#include "obs/series.hpp"
#include "simnet/world.hpp"

namespace snipe::daemon {

class Watchtower {
 public:
  /// Scrape/evaluate cadence (aligned with the telemetry exporter's
  /// default, so every beacon ships roughly one fresh point per series).
  static constexpr SimDuration kScrapePeriod = duration::seconds(1);

  /// Watches `host`'s own registry and NICs under
  /// obs::AlertEngine::builtin_rules(); alerts().add_rule() adds more.
  explicit Watchtower(simnet::Host& host);

  /// Schedules the first tick one period out.  Idempotent.
  void start();
  void stop() { running_ = false; }
  bool running() const { return running_; }

  obs::SeriesStore& series() { return series_; }
  const obs::SeriesStore& series() const { return series_; }
  obs::AlertEngine& alerts() { return alerts_; }
  const obs::AlertEngine& alerts() const { return alerts_; }

  std::uint64_t scrapes() const { return series_.scrapes(); }

 private:
  void tick();

  simnet::Host& host_;
  simnet::Engine& engine_;
  obs::SeriesStore series_;
  obs::AlertEngine alerts_;
  bool running_ = false;
};

}  // namespace snipe::daemon
