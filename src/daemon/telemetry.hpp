// In-band fleet telemetry: the networked half of the telemetry plane
// (obs/fleet.hpp holds the transport-free data structures).
//
// Every SNIPE process can run a TelemetryExporter — a weak periodic timer
// that builds a delta-compressed TelemetryBeacon from its registry and
// flight recorder and publishes it as an ordinary one-way RPC notification
// to one or more collectors.  Riding the real transports is deliberate: the
// paper's daemons "monitor hosts and processes" with the same messaging
// they manage them with, and the chaos harness then exercises the telemetry
// path for free.  A TelemetryCollector serves the beacon tag and folds every
// beacon into an obs::FleetStore, which the ops gateway and console query
// (/fleet/*).  Staleness is evaluated lazily at query time, so a partitioned
// exporter shows up as stale without the collector doing any per-host work;
// an enabled FleetWatch also alerts on that silence.  Host alert rules are
// not judged here: a host's Watchtower judges them, and their transitions
// reach the collector as the flight entries its beacons carry.
//
// Determinism contract: exporter traffic rides only management networks,
// never draws host or fault RNG there (loss-free links; Rng::chance(0)
// consumes nothing), and never perturbs other components' timestamps — so
// the data networks' replay digests are bit-identical with the exporter on
// or off (ChaosTrace.TelemetryExporterPreservesReplayDigests).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/alert.hpp"
#include "obs/fleet.hpp"
#include "transport/rpc.hpp"

namespace snipe::daemon {

namespace tags {
inline constexpr std::uint32_t kTelemetryBeacon = 140;  ///< one-way beacon
}  // namespace tags

struct TelemetryConfig {
  /// Collector addresses to publish to; empty disables the exporter.
  std::vector<simnet::Address> collectors;
  /// Export cadence (the "default cadence" the bench overhead guard pins),
  /// advertised in every beacon.  Every 16th beacon is a full snapshot (a
  /// resync point after loss).
  SimDuration period = duration::seconds(1);
};

/// Periodically publishes this process's telemetry to the configured
/// collectors.  The timer is weak (housekeeping must not keep a simulation
/// alive); ticks are skipped while the host is down and resume after a
/// revival, with the accumulated deltas riding the next beacon.
class TelemetryExporter {
 public:
  /// `registry` and `flight` default to the host's own (Host::metrics(),
  /// Host::flight()), so a beacon costs O(that host's instruments) and
  /// carries that host's flight entries.  `series` attaches a watchtower
  /// history store whose fresh points are delta-shipped inside every beacon
  /// (nullptr ships none).
  TelemetryExporter(transport::RpcEndpoint& rpc, TelemetryConfig config,
                    obs::MetricsRegistry* registry = nullptr,
                    obs::FlightRecorder* flight = nullptr,
                    const obs::SeriesStore* series = nullptr);

  /// Schedules the first tick one period out.  Idempotent.
  void start();
  void stop() { running_ = false; }
  bool running() const { return running_; }

  std::uint64_t beacons_sent() const { return beacons_sent_; }

 private:
  void tick();

  transport::RpcEndpoint& rpc_;
  simnet::Engine& engine_;
  TelemetryConfig config_;
  obs::BeaconBuilder builder_;
  obs::Counter* beacons_counter_;  ///< "telemetry.beacons_sent"
  obs::Counter* bytes_counter_;    ///< "telemetry.beacon_bytes"
  bool running_ = false;
  std::uint64_t beacons_sent_ = 0;
};

/// Collector-side watchtower switch.  Enabled, the collector runs a
/// FleetWatch over its store on a weak one-second timer — the one active
/// piece of the otherwise purely reactive collector, and a necessary one:
/// beacon staleness must fire precisely when *nothing* arrives to react to.
/// Each host's staleness is judged on the period its own beacons advertise.
struct CollectorWatchConfig {
  bool enabled = false;
};

/// Serves the beacon tag on an RPC endpoint and folds every beacon into a
/// FleetStore.  Reactive except for the optional FleetWatch timer: a
/// silent host costs nothing and is reported stale at query time (and, with
/// the watch enabled, alerts on it without any query).
class TelemetryCollector {
 public:
  /// FleetWatch evaluation cadence.
  static constexpr SimDuration kWatchPeriod = duration::seconds(1);

  explicit TelemetryCollector(transport::RpcEndpoint& rpc,
                              obs::FleetStore::Options options = {},
                              CollectorWatchConfig watch = {});

  obs::FleetStore& store() { return store_; }
  const obs::FleetStore& store() const { return store_; }

  /// The fleet silence detector (nullptr unless watch.enabled).
  obs::FleetWatch* watch() { return watch_.get(); }
  const obs::FleetWatch* watch() const { return watch_.get(); }

  std::uint64_t beacons_received() const { return beacons_received_; }
  std::uint64_t beacons_malformed() const { return beacons_malformed_; }

 private:
  void watch_tick();

  transport::RpcEndpoint& rpc_;
  obs::FleetStore store_;
  std::unique_ptr<obs::FleetWatch> watch_;
  std::uint64_t beacons_received_ = 0;
  std::uint64_t beacons_malformed_ = 0;
  Logger log_;
};

}  // namespace snipe::daemon
