// Fleet telemetry plane tests: sketch merge exactness, the beacon wire
// codec, delta/resync semantics, and an 8-host simulated world whose
// collector must report exact merged per-transport delivery percentiles
// and flag a partitioned host stale within 3 missed beacons (the ISSUE
// acceptance scenario).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/console.hpp"
#include "daemon/telemetry.hpp"
#include "obs/fleet.hpp"
#include "simnet/world.hpp"
#include "transport/rpc.hpp"

namespace snipe {
namespace {

using simnet::World;

// ---- sketch merge exactness ------------------------------------------------

TEST(FleetSketch, MergedQuantilesAreExactWrtUnion) {
  // 8 per-host registries, each with a different sample mix; one union
  // histogram fed every sample.  The fleet-merged sketch must report the
  // union's quantiles *exactly* — same buckets, same interpolation.
  constexpr int kHosts = 8;
  obs::MetricsRegistry union_registry;
  auto& union_hist = union_registry.histogram("srudp.delivery_ms");

  obs::FleetStore store;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<std::unique_ptr<obs::BeaconBuilder>> builders;
  for (int h = 0; h < kHosts; ++h) {
    registries.push_back(std::make_unique<obs::MetricsRegistry>());
    auto& hist = registries.back()->histogram("srudp.delivery_ms");
    for (int k = 0; k <= 10 + h; ++k) {
      double v = 0.07 * (k + 1) * (h + 1);  // spans several buckets per host
      hist.observe(v);
      union_hist.observe(v);
    }
    registries.back()->counter("srudp.fragments_sent").inc(100 * (h + 1));
    obs::BeaconBuilder::Options opt;
    opt.host = "h" + std::to_string(h);
    opt.period_ns = 1'000'000'000;
    opt.registry = registries[h].get();
    builders.push_back(std::make_unique<obs::BeaconBuilder>(opt));
    store.apply(builders.back()->build(1'000'000'000), 1'000'000'000);
  }

  obs::HistogramSketch merged = store.merged_sketch("srudp.delivery_ms");
  ASSERT_EQ(merged.count, union_hist.count());
  EXPECT_DOUBLE_EQ(merged.sum, union_hist.sum());
  for (double q : {0.5, 0.9, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile(q), union_hist.quantile(q)) << "q=" << q;
  EXPECT_DOUBLE_EQ(store.merged_value("srudp.fragments_sent"),
                   100.0 * kHosts * (kHosts + 1) / 2);

  // Second round of deltas: new samples on some hosts only; exactness must
  // survive delta application, not just the full first beacon.
  for (int h = 0; h < kHosts; h += 2) {
    auto& hist = registries[h]->histogram("srudp.delivery_ms");
    for (int k = 0; k < 5; ++k) {
      double v = 3.1 + 0.41 * k * (h + 1);
      hist.observe(v);
      union_hist.observe(v);
    }
  }
  for (int h = 0; h < kHosts; ++h)
    store.apply(builders[h]->build(2'000'000'000), 2'000'000'000);

  merged = store.merged_sketch("srudp.delivery_ms");
  ASSERT_EQ(merged.count, union_hist.count());
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile(q), union_hist.quantile(q)) << "q=" << q;
}

TEST(FleetSketch, MergeAddsBucketwiseAndAdoptsIntoEmpty) {
  obs::HistogramSketch a;
  a.buckets = {3, 0, 1};
  a.count = 4;
  a.sum = 5.5;

  obs::HistogramSketch empty;
  empty.merge(a);  // an empty sketch becomes a copy of the other
  EXPECT_EQ(empty.count, 4u);
  EXPECT_DOUBLE_EQ(empty.sum, 5.5);
  EXPECT_EQ(empty.buckets, a.buckets);

  obs::HistogramSketch b = a;
  a.merge(b);
  EXPECT_EQ(a.count, 8u);
  EXPECT_DOUBLE_EQ(a.sum, 11.0);
  EXPECT_EQ(a.buckets[0], 6u);
  EXPECT_EQ(a.buckets[2], 2u);
}

// ---- beacon wire codec -----------------------------------------------------

TEST(FleetBeacon, CodecRoundTripsEveryField) {
  obs::TelemetryBeacon b;
  b.host = "nine";
  b.seq = 17;
  b.ts = 123'456'789;
  b.period_ns = 1'000'000'000;
  b.full = true;
  b.counters = {{"a.x", 3.0}, {"b.y", 0.5}};
  b.gauges = {{"load", 1.25}};
  obs::HistogramSketch s;
  s.buckets.front() = 2;
  s.buckets[10] = 1;
  s.buckets.back() = 4;  // the +inf tail travels too
  s.count = 7;
  s.sum = 120'007.5;
  b.sketches = {{"a.delivery_ms", s}};
  b.flight.push_back({42, "nine", "srudp", "rto", "peer=b"});
  b.series = {{"srudp.rto_events", {{100, 1.0}, {200, 3.0}}},
              {"world.route_epoch", {{150, 2.0}}}};

  auto decoded = decode<obs::TelemetryBeacon>(encode(b));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const auto& d = decoded.value();
  EXPECT_EQ(d.host, "nine");
  EXPECT_EQ(d.seq, 17u);
  EXPECT_EQ(d.ts, 123'456'789);
  EXPECT_EQ(d.period_ns, 1'000'000'000);
  EXPECT_TRUE(d.full);
  ASSERT_EQ(d.counters.size(), 2u);
  EXPECT_EQ(d.counters[1].first, "b.y");
  EXPECT_DOUBLE_EQ(d.counters[1].second, 0.5);
  ASSERT_EQ(d.gauges.size(), 1u);
  ASSERT_EQ(d.sketches.size(), 1u);
  EXPECT_EQ(d.sketches[0].first, "a.delivery_ms");
  EXPECT_EQ(d.sketches[0].second.buckets, s.buckets);
  EXPECT_EQ(d.sketches[0].second.count, 7u);
  EXPECT_DOUBLE_EQ(d.sketches[0].second.sum, 120'007.5);
  EXPECT_DOUBLE_EQ(d.sketches[0].second.quantile(0.99), s.quantile(0.99));
  ASSERT_EQ(d.flight.size(), 1u);
  EXPECT_EQ(d.flight[0].what, "rto");
  EXPECT_EQ(d.flight[0].ts, 42);
  ASSERT_EQ(d.series.size(), 2u);
  EXPECT_EQ(d.series[0].first, "srudp.rto_events");
  ASSERT_EQ(d.series[0].second.size(), 2u);
  EXPECT_EQ(d.series[0].second[1], (obs::SeriesPoint{200, 3.0}));
  ASSERT_EQ(d.series[1].second.size(), 1u);
  EXPECT_EQ(d.series[1].second[0], (obs::SeriesPoint{150, 2.0}));
}

TEST(FleetBeacon, DecodeRejectsMalformedWire) {
  obs::TelemetryBeacon b;
  b.host = "h";
  b.seq = 1;
  Bytes wire = encode(b);

  // Truncations at every byte must error, never crash or mis-parse.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(decode<obs::TelemetryBeacon>(truncated).ok()) << "cut=" << cut;
  }
  // Trailing garbage is rejected too (a beacon is exactly one message).
  Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(decode<obs::TelemetryBeacon>(padded).ok());
  EXPECT_FALSE(decode<obs::TelemetryBeacon>(Bytes{}).ok());

  // A sketch carries its bucket count and no bounds: every histogram shares
  // Histogram::kBounds, so only kBuckets buckets decode.
  auto with_buckets = [](std::uint32_t n) {
    ByteWriter w;
    w.u8(3);  // beacon version
    w.str("h");
    w.u64(1);  // seq
    w.i64(0);  // ts
    w.i64(0);  // period
    w.u8(1);   // full
    w.u32(0);  // counters
    w.u32(0);  // gauges
    w.u32(1);  // sketches
    w.str("x.delivery_ms");
    w.u32(n);
    for (std::uint32_t i = 0; i < n; ++i) w.u64(i == 0 ? 1 : 0);
    w.u64(1);    // count
    w.f64(0.5);  // sum
    w.u32(0);    // flight
    w.u32(0);    // series
    return std::move(w).take();
  };
  auto exact = decode<obs::TelemetryBeacon>(with_buckets(obs::Histogram::kBuckets));
  ASSERT_TRUE(exact.ok()) << exact.error().to_string();
  ASSERT_EQ(exact.value().sketches.size(), 1u);
  EXPECT_EQ(exact.value().sketches[0].second.buckets[0], 1u);
  EXPECT_FALSE(decode<obs::TelemetryBeacon>(with_buckets(21)).ok());
  EXPECT_FALSE(decode<obs::TelemetryBeacon>(with_buckets(23)).ok());
}

// ---- delta / resync semantics ----------------------------------------------

TEST(FleetStore, GapDropsDeltasUntilNextFullBeacon) {
  obs::MetricsRegistry registry;
  auto& sent = registry.counter("srudp.fragments_sent");
  obs::BeaconBuilder::Options opt;
  opt.host = "h0";
  opt.period_ns = 1'000'000'000;
  opt.full_every = 4;  // seq 1 full, 2-3 delta, 4 full, ...
  opt.registry = &registry;
  obs::BeaconBuilder builder(opt);
  obs::FleetStore store;

  sent.inc(10);
  store.apply(builder.build(1), 1);  // seq 1, full
  sent.inc(5);
  store.apply(builder.build(2), 2);  // seq 2, delta (+5)
  EXPECT_DOUBLE_EQ(store.host_value("h0", "srudp.fragments_sent"), 15);

  sent.inc(7);
  obs::TelemetryBeacon lost = builder.build(3);  // seq 3 never arrives
  EXPECT_FALSE(lost.full);
  sent.inc(2);
  store.apply(builder.build(4), 4);  // seq 4 IS full: immediate resync

  // The lost delta's increments are not missing — the full beacon carries
  // absolute totals.
  EXPECT_DOUBLE_EQ(store.host_value("h0", "srudp.fragments_sent"), 24);
  EXPECT_EQ(store.beacons_dropped(), 0u);

  // Now lose a delta where the next beacon is also a delta: it must be
  // dropped (counted), and the store must hold the last consistent value
  // until the following full beacon resynchronises.
  sent.inc(1);
  builder.build(5);  // seq 5, delta, lost
  sent.inc(1);
  store.apply(builder.build(6), 6);  // seq 6, delta after a gap -> dropped
  EXPECT_EQ(store.beacons_dropped(), 1u);
  EXPECT_DOUBLE_EQ(store.host_value("h0", "srudp.fragments_sent"), 24);
  sent.inc(1);
  store.apply(builder.build(7), 7);  // in-seq delta but still awaiting full
  EXPECT_EQ(store.beacons_dropped(), 2u);
  sent.inc(3);
  store.apply(builder.build(8), 8);  // seq 8, full: caught up again
  EXPECT_DOUBLE_EQ(store.host_value("h0", "srudp.fragments_sent"), 30);

  auto health = store.health(8);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].resyncs, 1u);  // one gap episode, counted once
  EXPECT_EQ(health[0].seq, 8u);
}

TEST(FleetSeries, CursorShipsOnlyNewPointsAndFullBeaconResyncs) {
  constexpr std::int64_t kNs = 1'000'000'000;
  obs::MetricsRegistry registry;
  obs::SeriesStore series;
  obs::BeaconBuilder::Options opt;
  opt.host = "h0";
  opt.period_ns = kNs;
  opt.full_every = 4;  // seq 1 full, 2-3 delta, 4 full, ...
  opt.max_series_points = 4;
  opt.registry = &registry;
  opt.series = &series;
  obs::BeaconBuilder builder(opt);
  obs::FleetStore store;
  auto shipped = [](const obs::TelemetryBeacon& b, const std::string& name) {
    for (const auto& [n, pts] : b.series)
      if (n == name) return pts;
    return std::vector<obs::SeriesPoint>{};
  };

  series.record("m", 1 * kNs, 1);
  obs::TelemetryBeacon b1 = builder.build(1 * kNs);
  EXPECT_TRUE(b1.full);
  EXPECT_EQ(shipped(b1, "m").size(), 1u);
  store.apply(b1, 1 * kNs);

  // Deltas carry only points newer than the per-series cursor.
  series.record("m", 2 * kNs, 2);
  obs::TelemetryBeacon b2 = builder.build(2 * kNs);
  ASSERT_EQ(shipped(b2, "m").size(), 1u);
  EXPECT_EQ(shipped(b2, "m")[0].ts, 2 * kNs);
  store.apply(b2, 2 * kNs);

  // Nothing new: the series section ships nothing at all.
  obs::TelemetryBeacon b3 = builder.build(3 * kNs);
  EXPECT_TRUE(b3.series.empty());
  store.apply(b3, 3 * kNs);

  // A full beacon rewinds the cursors and re-ships retained history; the
  // collector's append is idempotent, so replayed stamps change nothing.
  series.record("m", 4 * kNs, 4);
  obs::TelemetryBeacon b4 = builder.build(4 * kNs);
  EXPECT_TRUE(b4.full);
  EXPECT_EQ(shipped(b4, "m").size(), 3u);
  store.apply(b4, 4 * kNs);
  const obs::SeriesStore* got = store.host_series("h0");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->points("m").size(), 3u);

  // Lose a delta: its points are absent until the next full beacon, whose
  // cursor rewind re-ships them — receiver-passive recovery, like the
  // counters, but keyed by timestamp instead of sequence.
  series.record("m", 5 * kNs, 5);
  builder.build(5 * kNs);  // seq 5, delta: never arrives
  series.record("m", 6 * kNs, 6);
  store.apply(builder.build(6 * kNs), 6 * kNs);  // gap: counters dropped...
  EXPECT_EQ(store.beacons_dropped(), 1u);
  EXPECT_DOUBLE_EQ(got->value_at("m", 5 * kNs), 4);  // ...and ts=5 missing
  EXPECT_DOUBLE_EQ(got->last("m"), 6);  // absolute samples still folded in

  series.record("m", 7 * kNs, 7);
  store.apply(builder.build(7 * kNs), 7 * kNs);
  series.record("m", 8 * kNs, 8);
  obs::TelemetryBeacon b8 = builder.build(8 * kNs);  // seq 8: full resync
  EXPECT_TRUE(b8.full);
  // The per-series resync cap binds: newest max_series_points win.
  std::vector<obs::SeriesPoint> resync = shipped(b8, "m");
  ASSERT_EQ(resync.size(), 4u);
  EXPECT_EQ(resync.front().ts, 5 * kNs);
  EXPECT_EQ(resync.back().ts, 8 * kNs);
  store.apply(b8, 8 * kNs);

  // The collector now holds the complete history (ts=5 recovered).
  EXPECT_EQ(got->points("m").size(), 7u);
  EXPECT_DOUBLE_EQ(got->value_at("m", 5 * kNs), 5);
  EXPECT_NE(store.format_series("h0", "m").find("m"), std::string::npos);
}

TEST(FleetStore, FlightTimelineMergeSortsAcrossHosts) {
  obs::FleetStore store;
  obs::TelemetryBeacon a;
  a.host = "a";
  a.seq = 1;
  a.full = true;
  a.flight.push_back({30, "a", "t", "e3", ""});
  a.flight.push_back({10, "a", "t", "e1", ""});
  obs::TelemetryBeacon b;
  b.host = "b";
  b.seq = 1;
  b.full = true;
  b.flight.push_back({20, "b", "t", "e2", ""});
  store.apply(a, 1);
  store.apply(b, 2);

  auto timeline = store.flight();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].what, "e1");
  EXPECT_EQ(timeline[1].what, "e2");
  EXPECT_EQ(timeline[2].what, "e3");
  EXPECT_EQ(store.flight("b").size(), 1u);
}

// ---- the acceptance scenario: 8 exporters, 1 collector, 1 partition --------

TEST(FleetIntegration, EightHostWorldExactPercentilesAndStaleness) {
  constexpr int kHosts = 8;
  World world(4242);
  world.create_network("mgmt", simnet::ethernet100());
  world.attach(world.create_host("coll"), *world.network("mgmt"));
  transport::RpcEndpoint collector_rpc(*world.host("coll"), 7300);
  daemon::TelemetryCollector collector(collector_rpc);

  obs::MetricsRegistry union_registry;
  auto& union_hist = union_registry.histogram("srudp.delivery_ms");

  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<std::unique_ptr<transport::RpcEndpoint>> rpcs;
  std::vector<std::unique_ptr<daemon::TelemetryExporter>> exporters;
  double fleet_sent = 0;
  for (int h = 0; h < kHosts; ++h) {
    std::string name = "h" + std::to_string(h);
    world.attach(world.create_host(name), *world.network("mgmt"));
    rpcs.push_back(
        std::make_unique<transport::RpcEndpoint>(*world.host(name), 7400));
    registries.push_back(std::make_unique<obs::MetricsRegistry>());
    auto& hist = registries.back()->histogram("srudp.delivery_ms");
    for (int k = 0; k <= 12 + h; ++k) {
      double v = 0.05 * (k + 1) * (h + 1);
      hist.observe(v);
      union_hist.observe(v);
    }
    registries.back()->counter("srudp.fragments_sent").inc(50 * (h + 1));
    registries.back()->counter("srudp.retransmits").inc(h);
    fleet_sent += 50.0 * (h + 1);
    world.host(name)->flight().record("test", "boot", "n=" + std::to_string(h));

    daemon::TelemetryConfig cfg;
    cfg.collectors = {collector_rpc.address()};
    cfg.period = duration::seconds(1);
    exporters.push_back(std::make_unique<daemon::TelemetryExporter>(
        *rpcs.back(), cfg, registries.back().get()));
    exporters.back()->start();
  }

  world.engine().run_until(duration::seconds(4));
  const obs::FleetStore& store = collector.store();
  ASSERT_EQ(store.host_count(), static_cast<std::size_t>(kHosts));

  // Exact merged per-transport delivery percentiles w.r.t. the union.
  obs::HistogramSketch merged = store.merged_sketch("srudp.delivery_ms");
  ASSERT_EQ(merged.count, union_hist.count());
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile(q), union_hist.quantile(q)) << "q=" << q;
  EXPECT_DOUBLE_EQ(store.merged_value("srudp.fragments_sent"), fleet_sent);

  // The health rollup renders those exact percentiles through the same
  // formatter the local health verb uses.
  std::string report =
      core::fleet_health_report(store, world.engine().now());
  EXPECT_NE(report.find("fleet hosts: 8 (0 stale)"), std::string::npos) << report;
  EXPECT_NE(report.find("srudp delivery_ms"), std::string::npos) << report;

  // Per-host flight entries arrived host-stamped and merge into a timeline.
  EXPECT_EQ(store.flight().size(), static_cast<std::size_t>(kHosts));
  EXPECT_EQ(store.flight("h3").size(), 1u);

  // Worst-host rankings answer from the per-host counters.
  auto worst = store.top_by_retransmit(3);
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_EQ(worst[0].host, "h7");  // highest retransmit ratio: 7/400

  // Partition h0's management NIC; the collector must keep serving and
  // flag h0 stale within 3 missed beacons while everyone else stays fresh.
  world.host("h0")->nic_on("mgmt")->set_up(false);
  std::uint64_t beacons_before = store.beacons_applied();
  world.engine().run_until(duration::seconds(8));  // 4 periods later
  EXPECT_GT(store.beacons_applied(), beacons_before);  // others kept landing
  EXPECT_TRUE(store.stale("h0", world.engine().now()));
  for (const auto& hh : store.health(world.engine().now())) {
    if (hh.host == "h0") {
      EXPECT_TRUE(hh.stale);
      EXPECT_GE(hh.missed, 3.0);
    } else {
      EXPECT_FALSE(hh.stale) << hh.host;
    }
  }
  std::string stale_report =
      core::fleet_health_report(store, world.engine().now());
  EXPECT_NE(stale_report.find("fleet hosts: 8 (1 stale)"), std::string::npos)
      << stale_report;
  EXPECT_NE(stale_report.find("STALE"), std::string::npos);

  // Healing the partition un-stales the host on the next beacon.
  world.host("h0")->nic_on("mgmt")->set_up(true);
  world.engine().run_until(duration::seconds(10));
  EXPECT_FALSE(store.stale("h0", world.engine().now()));
}

}  // namespace
}  // namespace snipe
