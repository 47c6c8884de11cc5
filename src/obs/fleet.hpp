// The fleet telemetry plane: data structures for in-band metric/health/
// flight fan-in (DESIGN.md "fleet telemetry plane").
//
// The local ops surface (PR 1/4) answers for one process; at the scale the
// paper targets, "the fleet view is the only usable view".  Every SNIPE
// process therefore runs a telemetry *exporter* that periodically publishes
// a delta-compressed snapshot of its registry, health fields and recent
// flight-recorder entries over the ordinary simulated transports to one or
// more *collector* processes (src/daemon/telemetry.hpp).  This header holds
// the transport-free half of that plane so it can live in obs (which links
// only util) and be unit-tested without a simulation:
//
//   * HistogramSketch (obs/metrics.hpp) — a histogram as its raw bucket
//     array over the one layout, Histogram::kBounds, which therefore never
//     goes on the wire.  Sketches merge by adding buckets, so fleet p50/p95/p99
//     computed from a merged sketch are *exact* with respect to the union
//     of the per-host buckets (identical quantile math to obs::Histogram,
//     not an approximation over pre-computed per-host percentiles).
//   * TelemetryBeacon  — one export: counter/gauge deltas, sketch bucket
//     deltas, new flight entries, plus (seq, ts, period) for gap detection
//     and staleness accounting.  Its field list is its wire
//     layout (util/codec.hpp).
//   * BeaconBuilder    — exporter-side delta state: remembers what the last
//     beacon carried and emits only what changed; every Nth beacon is a
//     full snapshot so a collector that missed a delta can resynchronise
//     without any receiver-driven chatter (the SRM lesson: recovery must
//     not add fan-in traffic).
//   * FleetStore       — collector-side state: per-host accumulations,
//     missed-beacon staleness, merged metric/health views, a flight
//     timeline merge-sorted by virtual time, and worst-N rankings.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "util/bytes.hpp"

namespace snipe::obs {

/// One telemetry export.  Deltas are with respect to the previous beacon of
/// the same incarnation; a `full` beacon carries absolute values and is the
/// resynchronisation point after loss or collector restart.
struct TelemetryBeacon {
  // v2 added the watchtower series section; v3 dropped each sketch's bucket
  // bounds, which are Histogram::kBounds everywhere.  Decode rejects any
  // other version — every exporter and collector in a deployment upgrade
  // together.
  static constexpr std::uint8_t kVersion = 3;
  std::uint8_t version = kVersion;
  std::string host;           ///< exporting host name
  std::uint64_t seq = 0;      ///< 1-based per exporter incarnation
  std::int64_t ts = 0;        ///< exporter clock at build time (virtual ns)
  std::int64_t period_ns = 0; ///< export cadence, for missed-beacon math
  bool full = false;          ///< absolute snapshot vs delta
  /// Counter deltas since the previous beacon (totals when `full`); only
  /// changed counters are carried — the delta compression.
  std::vector<std::pair<std::string, double>> counters;
  /// Gauge values (absolute either way — a gauge has no meaningful delta);
  /// only changed gauges are carried unless `full`.
  std::vector<std::pair<std::string, double>> gauges;
  /// Sketch bucket deltas (totals when `full`); only sketches with new
  /// observations are carried.
  std::vector<std::pair<std::string, HistogramSketch>> sketches;
  /// Flight-recorder entries recorded since the previous beacon.
  std::vector<FlightEvent> flight;
  /// Watchtower series points scraped since the previous beacon (all
  /// retained points when `full` — the resync path; the collector dedups
  /// by timestamp, so replays are idempotent).  Empty when the exporter
  /// has no SeriesStore attached.
  std::vector<std::pair<std::string, std::vector<SeriesPoint>>> series;

  template <class Io>
  void fields(Io& io) {
    io(version, host, seq, ts, period_ns, full, counters, gauges, sketches, flight, series);
  }
  Result<void> check() const {
    if (version != kVersion) return Error{Errc::corrupt, "beacon version"};
    return ok_result();
  }
};

/// Exporter-side delta state.  Bound to one registry + flight recorder; the
/// telemetry exporter binds its host's (Host::metrics(), Host::flight()), so
/// a beacon costs O(that host's instruments) and carries only that host's
/// flight entries.
class BeaconBuilder {
 public:
  /// Flight entries per beacon, newest win.
  static constexpr std::size_t kMaxFlight = 64;

  struct Options {
    std::string host;              ///< name stamped on every beacon
    std::int64_t period_ns = 0;    ///< advertised cadence
    std::uint32_t full_every = 16; ///< every Nth beacon is full (>=1)
    MetricsRegistry* registry = nullptr;  ///< nullptr = the global() roll-up
    FlightRecorder* flight = nullptr;     ///< nullptr = ship no flight entries
    /// Watchtower history to delta-ship inside beacons (nullptr = none).
    const SeriesStore* series = nullptr;
    /// Per-series point cap per beacon, newest win (resync safety valve).
    /// Deliberately small: a full resync ships every retained series, and a
    /// beacon bigger than SRUDP's send window stalls a full RTO and
    /// retransmits a whole window — the observability plane would be the
    /// fleet's noisiest flow.  An established collector loses nothing (it
    /// already holds the older points from past deltas); a fresh one starts
    /// from recent history and accretes forward.
    std::size_t max_series_points = 16;
  };

  explicit BeaconBuilder(Options options);

  /// Builds the next beacon (stamps `now_ns`, advances seq and the delta
  /// baselines).  The first beacon and every full_every-th one are full.
  TelemetryBeacon build(std::int64_t now_ns);

  std::uint64_t seq() const { return seq_; }

 private:
  MetricsRegistry& registry() const;

  Options options_;
  std::uint64_t seq_ = 0;
  std::map<std::string, double> last_counters_;
  std::map<std::string, double> last_gauges_;
  std::map<std::string, HistogramSketch> last_sketches_;
  std::uint64_t flight_cursor_ = 0;  ///< flight entries already exported
  /// Newest series point timestamp already shipped, per series.  Cursors
  /// (not "points since last build time") because a sample recorded at the
  /// build instant, after the build ran, must still ship next beacon.
  std::map<std::string, std::int64_t> series_cursor_;
};

/// Collector-side fleet state.  Applying a beacon is the only mutation;
/// every view (health, merged metrics, timeline, rankings) is computed at
/// query time, so a silent host costs nothing and cannot wedge the
/// collector — it simply shows up as stale when asked about.
class FleetStore {
 public:
  /// Flight entries kept per host, newest win.
  static constexpr std::size_t kMaxFlightPerHost = 1024;

  struct Options {
    /// A host is stale once this many beacon periods elapse with nothing
    /// received ("flag a partitioned host within 3 missed beacons").
    double stale_after_beacons = 3.0;
  };

  /// Per-host liveness summary as of one instant.
  struct HostHealth {
    std::string host;
    std::uint64_t beacons = 0;      ///< beacons applied
    std::uint64_t resyncs = 0;      ///< seq gaps seen (full-beacon recoveries)
    std::uint64_t seq = 0;          ///< last beacon seq
    std::int64_t last_ts = 0;       ///< exporter clock of last beacon
    std::int64_t last_arrival = 0;  ///< collector clock at last beacon
    std::int64_t period_ns = 0;
    double missed = 0;              ///< beacon periods elapsed since last
    bool stale = false;
  };

  FleetStore();
  explicit FleetStore(Options options);

  /// Applies one received beacon; `arrival_ns` is the collector's clock.
  /// Out-of-sequence deltas are dropped (liveness still updates) and the
  /// host is marked awaiting-full until the next full beacon resyncs it.
  void apply(const TelemetryBeacon& beacon, std::int64_t arrival_ns);

  const Options& options() const { return options_; }

  std::vector<std::string> hosts() const;
  std::size_t host_count() const { return hosts_.size(); }
  /// The beacon period `host` last advertised (0 when unknown).
  std::int64_t period_ns(const std::string& host) const;
  /// True once `host`'s silence exceeds stale_after_beacons of the period
  /// it advertises — the one staleness rule, which health() and FleetWatch
  /// both apply (false for an unknown host or one advertising no period).
  bool stale(const std::string& host, std::int64_t now_ns) const;
  std::vector<HostHealth> health(std::int64_t now_ns) const;

  /// Fleet-merged registry view: counters and gauges summed across hosts,
  /// sketches bucket-merged (quantiles exact w.r.t. the union).  Sorted by
  /// name, same shape the local registry's snapshot() has so the existing
  /// health rollup runs unchanged over the fleet.
  Snapshot merged_snapshot() const;
  /// Merged sketch for one metric name (empty sketch when unknown).
  HistogramSketch merged_sketch(const std::string& name) const;
  /// Fleet-summed counter/gauge value (0 when unknown).
  double merged_value(const std::string& name) const;
  /// Per-host counter/gauge value (0 when unknown) — test hook.
  double host_value(const std::string& host, const std::string& name) const;

  /// The watchtower history a host has shipped inside its beacons (nullptr
  /// for unknown hosts), for the fleet series views.  No alert reads it:
  /// host rules are judged on the host.
  const SeriesStore* host_series(const std::string& host) const;
  /// Text render of one host's (or, with "" every host's) shipped series.
  std::string format_series(const std::string& host, const std::string& prefix) const;

  /// Flight entries merge-sorted by virtual timestamp into one fleet
  /// timeline ("" = all hosts); ties keep host-name order, so the merge is
  /// deterministic.
  std::vector<FlightEvent> flight(const std::string& host = {}) const;

  /// Worst-N host rankings: srudp retransmit ratio and delivery p99.
  struct HostRank {
    std::string host;
    double value = 0;
    std::string detail;
  };
  std::vector<HostRank> top_by_retransmit(std::size_t n) const;
  std::vector<HostRank> top_by_delivery_p99(std::size_t n) const;

  /// Text renders for the console verbs and /fleet/* endpoints.
  std::string format_metrics(const std::string& prefix) const;
  std::string format_flight(const std::string& host) const;
  std::string format_top(std::size_t n) const;

  std::uint64_t beacons_applied() const { return beacons_applied_; }
  std::uint64_t beacons_dropped() const { return beacons_dropped_; }

 private:
  struct HostState {
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSketch> sketches;
    std::deque<FlightEvent> flight;
    SeriesStore series;  ///< watchtower history shipped inside beacons
    std::uint64_t last_seq = 0;
    std::int64_t last_ts = 0;
    std::int64_t last_arrival = 0;
    std::int64_t period_ns = 0;
    std::uint64_t beacons = 0;
    std::uint64_t resyncs = 0;
    bool awaiting_full = true;  ///< no trustworthy baseline yet
  };

  bool stale(const HostState& s, std::int64_t now_ns) const;

  Options options_;
  std::map<std::string, HostState> hosts_;
  std::uint64_t beacons_applied_ = 0;
  std::uint64_t beacons_dropped_ = 0;
};

}  // namespace snipe::obs
