#include "daemon/telemetry.hpp"

#include "obs/trace.hpp"
#include "util/codec.hpp"

namespace snipe::daemon {

TelemetryExporter::TelemetryExporter(transport::RpcEndpoint& rpc, TelemetryConfig config,
                                     obs::MetricsRegistry* registry,
                                     obs::FlightRecorder* flight,
                                     const obs::SeriesStore* series)
    : rpc_(rpc),
      engine_(rpc.engine()),
      config_(std::move(config)),
      builder_({.host = rpc.host().name(),
                .period_ns = config_.period,
                .registry = registry != nullptr ? registry : &rpc.host().metrics(),
                .flight = flight != nullptr ? flight : &rpc.host().flight(),
                .series = series}) {
  obs::MetricsRegistry& r = registry != nullptr ? *registry : rpc.host().metrics();
  beacons_counter_ = &r.counter("telemetry.beacons_sent");
  bytes_counter_ = &r.counter("telemetry.beacon_bytes");
}

void TelemetryExporter::start() {
  if (running_ || config_.collectors.empty() || config_.period <= 0) return;
  running_ = true;
  engine_.schedule_weak(config_.period, [this] { tick(); });
}

void TelemetryExporter::tick() {
  if (!running_) return;
  engine_.schedule_weak(config_.period, [this] { tick(); });
  // A crashed host exports nothing; the deltas keep accumulating and ride
  // the first beacon after revival (the collector sees an in-sequence
  // delta, so nothing is lost but time).
  if (!rpc_.host().up()) return;

  obs::TelemetryBeacon beacon = builder_.build(engine_.now());
  Bytes wire = encode(beacon);
  for (const simnet::Address& collector : config_.collectors)
    rpc_.notify(collector, tags::kTelemetryBeacon, wire);
  ++beacons_sent_;
  beacons_counter_->inc();
  bytes_counter_->inc(wire.size() * config_.collectors.size());
  // "telemetry" is its own trace category, so beacons show as one track.
  rpc_.host().tracer().instant(beacon.ts, "telemetry", "telemetry.beacon",
                               {{"host", beacon.host},
                                {"seq", std::to_string(beacon.seq)},
                                {"bytes", std::to_string(wire.size())},
                                {"full", beacon.full ? "1" : "0"}});
}

TelemetryCollector::TelemetryCollector(transport::RpcEndpoint& rpc,
                                       obs::FleetStore::Options options,
                                       CollectorWatchConfig watch)
    : rpc_(rpc),
      store_(options),
      log_("telemetry@" + rpc.host().name(), rpc.host().clock()) {
  if (watch.enabled) {
    watch_ = std::make_unique<obs::FleetWatch>(store_, &rpc.host().flight());
    rpc_.engine().schedule_weak(kWatchPeriod, [this] { watch_tick(); });
  }
  rpc_.on_notify(tags::kTelemetryBeacon, [this](const simnet::Address& from,
                                                const Payload& body) {
    auto beacon = decode<obs::TelemetryBeacon>(body);
    if (!beacon) {
      ++beacons_malformed_;
      log_.warn("malformed beacon from ", from.to_string(), ": ",
                beacon.error().to_string());
      return;
    }
    ++beacons_received_;
    const SimTime now = rpc_.engine().now();
    store_.apply(beacon.value(), now);
    rpc_.host().tracer().instant(now, "telemetry", "telemetry.beacon_rx",
                                 {{"host", beacon.value().host},
                                  {"seq", std::to_string(beacon.value().seq)}});
  });
}

void TelemetryCollector::watch_tick() {
  if (watch_ == nullptr) return;
  rpc_.engine().schedule_weak(kWatchPeriod, [this] { watch_tick(); });
  // A crashed collector judges nobody; evaluation resumes after revival.
  if (!rpc_.host().up()) return;
  watch_->evaluate(rpc_.engine().now());
}

}  // namespace snipe::daemon
