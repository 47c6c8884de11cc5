#include "obs/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>

namespace snipe::obs {

// ---------- BeaconBuilder ----------

BeaconBuilder::BeaconBuilder(Options options) : options_(std::move(options)) {
  if (options_.full_every == 0) options_.full_every = 1;
}

MetricsRegistry& BeaconBuilder::registry() const {
  return options_.registry != nullptr ? *options_.registry : MetricsRegistry::global();
}

TelemetryBeacon BeaconBuilder::build(std::int64_t now_ns) {
  ++seq_;
  TelemetryBeacon b;
  b.host = options_.host;
  b.seq = seq_;
  b.ts = now_ns;
  b.period_ns = options_.period_ns;
  b.full = seq_ == 1 || seq_ % options_.full_every == 0;

  // Counters and gauges from the snapshot (which folds pull sources and
  // retained totals into counter entries, exactly what should be exported).
  for (const MetricValue& m : registry().snapshot()) {
    if (m.kind == MetricValue::Kind::counter) {
      double last = 0;
      if (auto it = last_counters_.find(m.name); it != last_counters_.end())
        last = it->second;
      // A value below the baseline means the registry was reset mid-run;
      // re-export from zero and let the next full beacon reconcile.
      double delta = m.value >= last ? m.value - last : m.value;
      if (b.full)
        b.counters.emplace_back(m.name, m.value);
      else if (delta != 0)
        b.counters.emplace_back(m.name, delta);
      last_counters_[m.name] = m.value;
    } else if (m.kind == MetricValue::Kind::gauge) {
      auto it = last_gauges_.find(m.name);
      bool changed = it == last_gauges_.end() || it->second != m.value;
      if (b.full || changed) b.gauges.emplace_back(m.name, m.value);
      last_gauges_[m.name] = m.value;
    }
  }

  // Histograms as raw bucket arrays — the mergeable form.
  for (auto& [name, abs] : registry().histogram_sketches()) {
    auto it = last_sketches_.find(name);
    if (b.full) {
      b.sketches.emplace_back(name, abs);
    } else {
      HistogramSketch delta = abs;
      if (it != last_sketches_.end() && abs.count >= it->second.count) {
        for (std::size_t i = 0; i < delta.buckets.size(); ++i)
          delta.buckets[i] -= it->second.buckets[i];
        delta.count -= it->second.count;
        delta.sum -= it->second.sum;
      }
      if (delta.count > 0) b.sketches.emplace_back(name, std::move(delta));
    }
    last_sketches_[name] = std::move(abs);
  }

  // Flight entries recorded since the last beacon.
  if (options_.flight != nullptr)
    b.flight = options_.flight->events_since(flight_cursor_, kMaxFlight);

  // Watchtower series: every retained point newer than the per-series ship
  // cursor.  Full beacons rewind the cursors and ship the whole retention
  // window — the same receiver-passive resync path the counters use; the
  // collector dedups by timestamp so the replay is idempotent.
  if (options_.series != nullptr)
    b.series = options_.series->fresh_points(series_cursor_, b.full,
                                             options_.max_series_points);
  return b;
}

// ---------- FleetStore ----------

FleetStore::FleetStore() : FleetStore(Options{}) {}

FleetStore::FleetStore(Options options) : options_(options) {
  if (options_.stale_after_beacons <= 0) options_.stale_after_beacons = 3.0;
}

void FleetStore::apply(const TelemetryBeacon& beacon, std::int64_t arrival_ns) {
  HostState& s = hosts_[beacon.host];
  bool in_seq = s.beacons > 0 && beacon.seq == s.last_seq + 1;

  if (beacon.full) {
    s.counters.clear();
    s.gauges.clear();
    s.sketches.clear();
    for (const auto& [name, v] : beacon.counters) s.counters[name] = v;
    for (const auto& [name, v] : beacon.gauges) s.gauges[name] = v;
    for (const auto& [name, sketch] : beacon.sketches) s.sketches[name] = sketch;
    s.awaiting_full = false;
    ++beacons_applied_;
  } else if (!s.awaiting_full && in_seq) {
    for (const auto& [name, v] : beacon.counters) s.counters[name] += v;
    for (const auto& [name, v] : beacon.gauges) s.gauges[name] = v;
    for (const auto& [name, sketch] : beacon.sketches) s.sketches[name].merge(sketch);
    ++beacons_applied_;
  } else {
    // Sequence gap (or no baseline yet): the delta cannot be trusted, so
    // drop its metric content and wait for the exporter's next full beacon
    // — receiver-passive recovery, no extra fan-in traffic.
    if (!s.awaiting_full) ++s.resyncs;
    s.awaiting_full = true;
    ++beacons_dropped_;
  }

  // Series points are absolute samples keyed by timestamp, not deltas:
  // folding them is idempotent (equal stamps overwrite) and order-tolerant
  // (merge backfills interior holes), so they apply even around a resync —
  // a full beacon's cursor rewind heals whatever gap a lost delta left.
  for (const auto& [name, points] : beacon.series)
    for (const SeriesPoint& p : points) s.series.merge(name, p.ts, p.value);

  // Flight entries are append-only context, not deltas: keep them even
  // around a resync.
  for (const FlightEvent& e : beacon.flight) {
    s.flight.push_back(e);
    if (s.flight.size() > kMaxFlightPerHost) s.flight.pop_front();
  }

  // Liveness updates on every beacon, applied or dropped.
  s.last_seq = beacon.seq;
  s.last_ts = beacon.ts;
  s.last_arrival = arrival_ns;
  s.period_ns = beacon.period_ns;
  ++s.beacons;
}

std::vector<std::string> FleetStore::hosts() const {
  std::vector<std::string> out;
  out.reserve(hosts_.size());
  for (const auto& [name, s] : hosts_) out.push_back(name);
  return out;
}

std::int64_t FleetStore::period_ns(const std::string& host) const {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? 0 : it->second.period_ns;
}

bool FleetStore::stale(const std::string& host, std::int64_t now_ns) const {
  auto it = hosts_.find(host);
  return it != hosts_.end() && stale(it->second, now_ns);
}

bool FleetStore::stale(const HostState& s, std::int64_t now_ns) const {
  if (s.period_ns <= 0) return false;
  return static_cast<double>(now_ns - s.last_arrival) >
         options_.stale_after_beacons * static_cast<double>(s.period_ns);
}

std::vector<FleetStore::HostHealth> FleetStore::health(std::int64_t now_ns) const {
  std::vector<HostHealth> out;
  out.reserve(hosts_.size());
  for (const auto& [name, s] : hosts_) {
    HostHealth h;
    h.host = name;
    h.beacons = s.beacons;
    h.resyncs = s.resyncs;
    h.seq = s.last_seq;
    h.last_ts = s.last_ts;
    h.last_arrival = s.last_arrival;
    h.period_ns = s.period_ns;
    if (s.period_ns > 0)
      h.missed = static_cast<double>(now_ns - s.last_arrival) /
                 static_cast<double>(s.period_ns);
    h.stale = stale(s, now_ns);
    out.push_back(std::move(h));
  }
  return out;
}

Snapshot FleetStore::merged_snapshot() const {
  std::map<std::string, MetricValue> merged;
  std::map<std::string, HistogramSketch> sketches;
  for (const auto& [host, s] : hosts_) {
    for (const auto& [name, v] : s.counters) {
      MetricValue& m = merged[name];
      m.kind = MetricValue::Kind::counter;
      m.name = name;
      m.value += v;
    }
    for (const auto& [name, v] : s.gauges) {
      MetricValue& m = merged[name];
      m.kind = MetricValue::Kind::gauge;
      m.name = name;
      m.value += v;
    }
    for (const auto& [name, sketch] : s.sketches) sketches[name].merge(sketch);
  }
  for (const auto& [name, sketch] : sketches) {
    MetricValue& m = merged[name];
    m.kind = MetricValue::Kind::histogram;
    m.name = name;
    m.count = sketch.count;
    m.sum = sketch.sum;
    m.p50 = sketch.quantile(0.50);
    m.p95 = sketch.quantile(0.95);
    m.p99 = sketch.quantile(0.99);
  }
  Snapshot out;
  out.reserve(merged.size());
  for (auto& [name, v] : merged) out.push_back(std::move(v));
  return out;
}

HistogramSketch FleetStore::merged_sketch(const std::string& name) const {
  HistogramSketch out;
  for (const auto& [host, s] : hosts_)
    if (auto it = s.sketches.find(name); it != s.sketches.end()) out.merge(it->second);
  return out;
}

double FleetStore::merged_value(const std::string& name) const {
  double out = 0;
  for (const auto& [host, s] : hosts_) {
    if (auto it = s.counters.find(name); it != s.counters.end()) out += it->second;
    if (auto it = s.gauges.find(name); it != s.gauges.end()) out += it->second;
  }
  return out;
}

double FleetStore::host_value(const std::string& host, const std::string& name) const {
  auto hit = hosts_.find(host);
  if (hit == hosts_.end()) return 0;
  if (auto it = hit->second.counters.find(name); it != hit->second.counters.end())
    return it->second;
  if (auto it = hit->second.gauges.find(name); it != hit->second.gauges.end())
    return it->second;
  return 0;
}

const SeriesStore* FleetStore::host_series(const std::string& host) const {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? nullptr : &it->second.series;
}

std::string FleetStore::format_series(const std::string& host,
                                      const std::string& prefix) const {
  std::string out;
  for (const auto& [name, s] : hosts_) {
    if (!host.empty() && name != host) continue;
    out += "host " + name + ":\n";
    std::string body = s.series.format_text(prefix);
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t eol = body.find('\n', pos);
      if (eol == std::string::npos) eol = body.size() - 1;
      out += "  " + body.substr(pos, eol - pos + 1);
      pos = eol + 1;
    }
  }
  if (out.empty())
    out = host.empty() ? "(no hosts have beaconed yet)\n"
                       : "(no series for host " + host + ")\n";
  return out;
}

std::vector<FlightEvent> FleetStore::flight(const std::string& host) const {
  std::vector<FlightEvent> out;
  for (const auto& [name, s] : hosts_) {
    if (!host.empty() && name != host) continue;
    out.insert(out.end(), s.flight.begin(), s.flight.end());
  }
  // Hosts were visited in name order, so a stable sort on the timestamp
  // yields one deterministic fleet timeline with name-ordered ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& a, const FlightEvent& b) { return a.ts < b.ts; });
  return out;
}

std::vector<FleetStore::HostRank> FleetStore::top_by_retransmit(std::size_t n) const {
  std::vector<HostRank> out;
  for (const auto& [name, s] : hosts_) {
    auto num = s.counters.find("srudp.retransmits");
    auto den = s.counters.find("srudp.fragments_sent");
    if (den == s.counters.end() || den->second <= 0) continue;
    HostRank r;
    r.host = name;
    double retx = num == s.counters.end() ? 0 : num->second;
    r.value = retx / den->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "(retx=%.0f sent=%.0f)", retx, den->second);
    r.detail = buf;
    out.push_back(std::move(r));
  }
  std::stable_sort(out.begin(), out.end(), [](const HostRank& a, const HostRank& b) {
    return a.value > b.value;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<FleetStore::HostRank> FleetStore::top_by_delivery_p99(std::size_t n) const {
  constexpr std::string_view suffix = ".delivery_ms";
  std::vector<HostRank> out;
  for (const auto& [name, s] : hosts_) {
    HostRank r;
    r.host = name;
    bool any = false;
    for (const auto& [metric, sketch] : s.sketches) {
      if (metric.size() <= suffix.size() ||
          metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) != 0)
        continue;
      if (sketch.empty()) continue;
      double p99 = sketch.quantile(0.99);
      if (!any || p99 > r.value) {
        r.value = p99;
        r.detail = "(" + metric + ")";
        any = true;
      }
    }
    if (any) out.push_back(std::move(r));
  }
  std::stable_sort(out.begin(), out.end(), [](const HostRank& a, const HostRank& b) {
    return a.value > b.value;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::string FleetStore::format_metrics(const std::string& prefix) const {
  std::string out;
  char line[256];
  for (const MetricValue& m : merged_snapshot()) {
    if (!prefix.empty() && m.name.rfind(prefix, 0) != 0) continue;
    switch (m.kind) {
      case MetricValue::Kind::counter:
        std::snprintf(line, sizeof(line), "%-36s %.0f\n", m.name.c_str(), m.value);
        break;
      case MetricValue::Kind::gauge:
        std::snprintf(line, sizeof(line), "%-36s %g\n", m.name.c_str(), m.value);
        break;
      case MetricValue::Kind::histogram:
        std::snprintf(line, sizeof(line),
                      "%-36s count=%llu sum=%.3f p50=%.3f p95=%.3f p99=%.3f\n",
                      m.name.c_str(), static_cast<unsigned long long>(m.count), m.sum,
                      m.p50, m.p95, m.p99);
        break;
    }
    out += line;
  }
  return out;
}

std::string FleetStore::format_flight(const std::string& host) const {
  std::vector<FlightEvent> timeline = flight(host);
  if (timeline.empty())
    return host.empty() ? "(fleet flight empty)"
                        : "(no fleet flight events for host " + host + ")";
  return "fleet flight (" + std::to_string(timeline.size()) + " events):\n" +
         format_flight_lines(timeline);
}

std::string FleetStore::format_top(std::size_t n) const {
  char buf[160];
  std::string out = "top retransmit_ratio:\n";
  auto retx = top_by_retransmit(n);
  if (retx.empty()) out += "  (none)\n";
  for (const auto& r : retx) {
    std::snprintf(buf, sizeof(buf), "  %-16s %.4f %s\n", r.host.c_str(), r.value,
                  r.detail.c_str());
    out += buf;
  }
  out += "top delivery_p99_ms:\n";
  auto p99 = top_by_delivery_p99(n);
  if (p99.empty()) out += "  (none)\n";
  for (const auto& r : p99) {
    std::snprintf(buf, sizeof(buf), "  %-16s %.3f %s\n", r.host.c_str(), r.value,
                  r.detail.c_str());
    out += buf;
  }
  return out;
}

}  // namespace snipe::obs
