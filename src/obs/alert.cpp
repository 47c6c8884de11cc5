#include "obs/alert.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/flight.hpp"
#include "util/time.hpp"

namespace snipe::obs {

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

/// The one rule FleetWatch judges.
constexpr const char* kBeaconStale = "beacon_stale";

const char* kind_name(AlertKind kind) {
  switch (kind) {
    case AlertKind::threshold: return "threshold";
    case AlertKind::rate: return "rate";
    case AlertKind::flap: return "flap";
    case AlertKind::ratio: return "ratio";
  }
  return "?";
}

}  // namespace

const char* to_string(AlertState state) {
  switch (state) {
    case AlertState::idle: return "idle";
    case AlertState::pending: return "pending";
    case AlertState::firing: return "firing";
  }
  return "?";
}

AlertEngine::AlertEngine(Options options) : options_(std::move(options)) {}

void AlertEngine::add_rule(AlertRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  RuleState rs;
  rs.rule = std::move(rule);
  rules_.push_back(std::move(rs));
}

void AlertEngine::add_rules(const std::vector<AlertRule>& rules) {
  for (const AlertRule& r : rules) add_rule(r);
}

std::size_t AlertEngine::rule_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_.size();
}

bool AlertEngine::condition(const RuleState& rs, const SeriesStore& series,
                            std::int64_t now_ns, double& value) const {
  const AlertRule& r = rs.rule;
  value = 0;
  if (!series.has(r.metric)) return false;
  switch (r.kind) {
    case AlertKind::threshold:
      value = series.last(r.metric);
      break;
    case AlertKind::rate:
      value = series.rate_per_sec(r.metric, r.window_ns, now_ns);
      break;
    case AlertKind::flap:
      value = static_cast<double>(series.changes_in(r.metric, r.window_ns, now_ns));
      break;
    case AlertKind::ratio: {
      double den = series.delta(r.denominator, r.window_ns, now_ns);
      double num = series.delta(r.metric, r.window_ns, now_ns);
      value = num / std::max(den, 1.0);
      break;
    }
  }
  return r.above ? value > r.threshold : value < r.threshold;
}

void AlertEngine::emit(const RuleState& rs, const char* what) {
  if (FlightRecorder* flight = options_.flight; flight != nullptr) {
    char detail[256];
    std::snprintf(detail, sizeof(detail), "%s %s(%s) value=%g threshold=%g%s%s",
                  rs.rule.name.c_str(), kind_name(rs.rule.kind),
                  rs.rule.metric.c_str(), rs.value, rs.rule.threshold,
                  rs.rule.detail.empty() ? "" : " — ", rs.rule.detail.c_str());
    flight->record(kWatchtowerCategory, what, detail);
  }
}

void AlertEngine::evaluate(const SeriesStore& series, std::int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (RuleState& rs : rules_) {
    double value = 0;
    bool cond = condition(rs, series, now_ns, value);
    rs.value = value;
    switch (rs.state) {
      case AlertState::idle:
        if (!cond) break;
        rs.state = AlertState::pending;
        rs.since = now_ns;
        emit(rs, "alert.pending");
        [[fallthrough]];  // a zero hold fires on the same evaluation
      case AlertState::pending:
        if (!cond) {
          rs.state = AlertState::idle;
          rs.since = now_ns;
          break;
        }
        if (now_ns - rs.since >= rs.rule.for_ns) {
          rs.state = AlertState::firing;
          rs.since = now_ns;
          rs.clear_since = 0;
          ++rs.fired;
          ++fired_total_;
          emit(rs, "alert.firing");
        }
        break;
      case AlertState::firing:
        if (cond) {
          rs.clear_since = 0;
          break;
        }
        if (rs.clear_since == 0) rs.clear_since = now_ns;
        if (now_ns - rs.clear_since >= rs.rule.clear_ns) {
          rs.state = AlertState::idle;
          rs.since = now_ns;
          ++rs.resolved;
          emit(rs, "alert.resolved");
        }
        break;
    }
  }
}

std::vector<AlertStatus> AlertEngine::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AlertStatus> out;
  out.reserve(rules_.size());
  for (const RuleState& rs : rules_) {
    AlertStatus s;
    s.rule = rs.rule.name;
    s.metric = rs.rule.metric;
    s.state = rs.state;
    s.since = rs.since;
    s.value = rs.value;
    s.fired = rs.fired;
    s.resolved = rs.resolved;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t AlertEngine::firing_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const RuleState& rs : rules_)
    if (rs.state == AlertState::firing) ++n;
  return n;
}

std::uint64_t AlertEngine::fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_total_;
}

std::uint64_t AlertEngine::fired(const std::string& rule) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& rs : rules_)
    if (rs.rule.name == rule) return rs.fired;
  return 0;
}

std::uint64_t AlertEngine::resolved(const std::string& rule) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& rs : rules_)
    if (rs.rule.name == rule) return rs.resolved;
  return 0;
}

std::string AlertEngine::format_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (rules_.empty()) return "(no alert rules)\n";
  std::string out;
  char line[256];
  for (const RuleState& rs : rules_) {
    std::snprintf(line, sizeof(line),
                  "%-24s %-9s %s(%s) value=%-10g threshold=%-8g fired=%llu resolved=%llu\n",
                  rs.rule.name.c_str(), to_string(rs.state), kind_name(rs.rule.kind),
                  rs.rule.metric.c_str(), rs.value, rs.rule.threshold,
                  static_cast<unsigned long long>(rs.fired),
                  static_cast<unsigned long long>(rs.resolved));
    out += line;
  }
  return out;
}

std::vector<AlertRule> AlertEngine::builtin_rules() {
  std::vector<AlertRule> out;
  {
    AlertRule r;
    r.name = "srudp_rto_storm";
    r.kind = AlertKind::rate;
    r.metric = "srudp.rto_events";
    r.threshold = 1.0;  // sustained > 1 RTO/s is a storm, not a blip
    r.window_ns = 10 * kSecond;
    r.for_ns = 5 * kSecond;
    r.clear_ns = 15 * kSecond;
    r.detail = "sustained retransmission-timeout rate";
    out.push_back(std::move(r));
  }
  {
    AlertRule r;
    r.name = "route_flap_churn";
    r.kind = AlertKind::flap;
    r.metric = "world.route_epoch";
    r.threshold = 3.0;  // > 3 epoch bumps inside the window
    r.window_ns = 30 * kSecond;
    r.for_ns = 0;
    r.clear_ns = 30 * kSecond;
    r.detail = "route epoch churning (links or NICs flapping)";
    out.push_back(std::move(r));
  }
  {
    AlertRule r;
    r.name = "incast_collapse";
    r.kind = AlertKind::ratio;
    r.metric = "srudp.retransmits";
    r.denominator = "srudp.fragments_sent";
    r.threshold = 0.25;  // a quarter of the send budget burned on repair
    r.window_ns = 10 * kSecond;
    r.for_ns = 5 * kSecond;
    r.clear_ns = 15 * kSecond;
    r.detail = "goodput collapse: sustained retransmit share of sends";
    out.push_back(std::move(r));
  }
  {
    AlertRule r;
    r.name = "file_repair_churn";
    r.kind = AlertKind::rate;
    r.metric = "files.repairs";
    r.threshold = 0.2;  // healthy repair converges and goes quiet
    r.window_ns = 30 * kSecond;
    r.for_ns = 10 * kSecond;
    r.clear_ns = 30 * kSecond;
    r.detail = "replica repair is not converging";
    out.push_back(std::move(r));
  }
  return out;
}

// ---------- FleetWatch ----------

FleetWatch::FleetWatch(const FleetStore& store, FlightRecorder* flight)
    : store_(store), flight_(flight) {}

void FleetWatch::emit(const std::string& host, const HostState& hs, const char* what) {
  if (flight_ == nullptr) return;
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "host=%s %s missed=%g threshold=%g — no beacon heard "
                "(crashed or partitioned exporter)",
                host.c_str(), kBeaconStale, hs.missed, store_.options().stale_after_beacons);
  flight_->record(kWatchtowerCategory, what, detail);
}

void FleetWatch::evaluate(std::int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FleetStore::HostHealth& h : store_.health(now_ns)) {
    HostState& hs = hosts_[h.host];
    hs.missed = h.missed;
    if (h.stale == hs.firing) continue;
    hs.firing = h.stale;
    ++(hs.firing ? hs.fired : hs.resolved);
    emit(h.host, hs, hs.firing ? "alert.firing" : "alert.resolved");
  }
}

std::size_t FleetWatch::firing_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [host, hs] : hosts_) n += hs.firing ? 1 : 0;
  return n;
}

std::uint64_t FleetWatch::fired_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [host, hs] : hosts_) n += hs.fired;
  return n;
}

std::uint64_t FleetWatch::fired(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hosts_.find(host);
  return it == hosts_.end() ? 0 : it->second.fired;
}

std::uint64_t FleetWatch::resolved(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hosts_.find(host);
  return it == hosts_.end() ? 0 : it->second.resolved;
}

std::string FleetWatch::format_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (hosts_.empty()) return "(no hosts have beaconed yet)\n";
  std::string out;
  char line[256];
  for (const auto& [host, hs] : hosts_) {
    std::snprintf(line, sizeof(line),
                  "host %-16s %s %-7s missed=%-8.3g threshold=%-4g fired=%llu resolved=%llu\n",
                  host.c_str(), kBeaconStale, hs.firing ? "firing" : "idle", hs.missed,
                  store_.options().stale_after_beacons,
                  static_cast<unsigned long long>(hs.fired),
                  static_cast<unsigned long long>(hs.resolved));
    out += line;
  }
  return out;
}

}  // namespace snipe::obs
