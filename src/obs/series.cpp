#include "obs/series.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace snipe::obs {

// ---------- Series ----------

Series::Series(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 8)) {}

void Series::append(std::int64_t ts, double value) {
  if (!points_.empty()) {
    SeriesPoint& newest = points_.back();
    if (ts < newest.ts) return;  // stale sample (resync replay) — ignore
    if (ts == newest.ts) {
      newest.value = value;  // idempotent overwrite for duplicate stamps
      return;
    }
    // Run collapse: the newest point slides forward while the value holds,
    // so a flat series keeps exactly its run-start and run-end points.
    if (newest.value == value && points_.size() >= 2 &&
        points_[points_.size() - 2].value == value) {
      newest.ts = ts;
      return;
    }
  }
  points_.push_back({ts, value});
  if (points_.size() > capacity_) compact();
}

void Series::merge(std::int64_t ts, double value) {
  // The common case — a point at or past the newest — is an append, with
  // all of append's retention rules (overwrite, run collapse).
  if (points_.empty() || ts >= points_.back().ts) {
    append(ts, value);
    return;
  }
  // An interior stamp backfills a hole (a resync replaying points a lost
  // delta carried).  No run collapse here: the replayed sample is an exact
  // absolute observation, inserted as-is.
  auto it = std::lower_bound(
      points_.begin(), points_.end(), ts,
      [](const SeriesPoint& p, std::int64_t t) { return p.ts < t; });
  if (it != points_.end() && it->ts == ts) {
    it->value = value;  // idempotent overwrite, as in append
    return;
  }
  points_.insert(it, {ts, value});
  if (points_.size() > capacity_) compact();
}

void Series::compact() {
  // Keep every other point walking back from the newest (which always
  // survives); old history halves in resolution instead of falling off.
  std::vector<SeriesPoint> kept;
  kept.reserve(points_.size() / 2 + 1);
  for (std::size_t i = points_.size(); i-- > 0;) {
    kept.push_back(points_[i]);
    if (i > 0) --i;  // skip the older sibling of each pair
  }
  std::reverse(kept.begin(), kept.end());
  points_ = std::move(kept);
}

std::vector<SeriesPoint> Series::points_since(std::int64_t after_ts) const {
  auto it = std::upper_bound(
      points_.begin(), points_.end(), after_ts,
      [](std::int64_t ts, const SeriesPoint& p) { return ts < p.ts; });
  return std::vector<SeriesPoint>(it, points_.end());
}

double Series::value_at(std::int64_t ts) const {
  if (points_.empty()) return 0;
  auto it = std::upper_bound(
      points_.begin(), points_.end(), ts,
      [](std::int64_t t, const SeriesPoint& p) { return t < p.ts; });
  if (it == points_.begin()) return points_.front().value;
  return std::prev(it)->value;
}

double Series::delta(std::int64_t window_ns, std::int64_t now_ns) const {
  if (points_.empty()) return 0;
  return last_value() - value_at(now_ns - window_ns);
}

std::size_t Series::changes_in(std::int64_t window_ns, std::int64_t now_ns) const {
  std::size_t changes = 0;
  std::int64_t start = now_ns - window_ns;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const SeriesPoint& newer = points_[i];
    if (newer.ts <= start || newer.ts > now_ns) continue;
    if (newer.value != points_[i - 1].value) ++changes;
  }
  return changes;
}

// ---------- SeriesStore ----------

SeriesStore::SeriesStore(Options options) : options_(options) {}

Series& SeriesStore::series_locked(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end())
    it = series_.emplace(name, Series(kCapacityPerSeries)).first;
  return it->second;
}

void SeriesStore::record(const std::string& name, std::int64_t ts, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_locked(name).append(ts, value);
}

void SeriesStore::merge(const std::string& name, std::int64_t ts, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_locked(name).merge(ts, value);
}

void SeriesStore::scrape(std::int64_t now_ns) {
  const MetricsRegistry& reg =
      options_.registry != nullptr ? *options_.registry : MetricsRegistry::global();
  Snapshot snap = reg.snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const MetricValue& m : snap) {
    switch (m.kind) {
      case MetricValue::Kind::counter:
      case MetricValue::Kind::gauge:
        series_locked(m.name).append(now_ns, m.value);
        break;
      case MetricValue::Kind::histogram:
        series_locked(m.name + ".count").append(now_ns, static_cast<double>(m.count));
        break;
    }
  }
  ++scrapes_;
}

const Series* SeriesStore::find_locked(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> SeriesStore::names(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, s] : series_)
    if (prefix.empty() || name.rfind(prefix, 0) == 0) out.push_back(name);
  return out;
}

std::size_t SeriesStore::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

bool SeriesStore::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_locked(name) != nullptr;
}

double SeriesStore::last(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = find_locked(name);
  return s == nullptr ? 0 : s->last_value();
}

std::int64_t SeriesStore::last_ts(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = find_locked(name);
  return s == nullptr ? 0 : s->last_ts();
}

double SeriesStore::value_at(const std::string& name, std::int64_t ts) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = find_locked(name);
  return s == nullptr ? 0 : s->value_at(ts);
}

double SeriesStore::delta(const std::string& name, std::int64_t window_ns,
                          std::int64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = find_locked(name);
  return s == nullptr ? 0 : s->delta(window_ns, now_ns);
}

double SeriesStore::rate_per_sec(const std::string& name, std::int64_t window_ns,
                                 std::int64_t now_ns) const {
  if (window_ns <= 0) return 0;
  return delta(name, window_ns, now_ns) /
         (static_cast<double>(window_ns) / 1e9);
}

std::size_t SeriesStore::changes_in(const std::string& name, std::int64_t window_ns,
                                    std::int64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = find_locked(name);
  return s == nullptr ? 0 : s->changes_in(window_ns, now_ns);
}

std::vector<SeriesPoint> SeriesStore::points_since(const std::string& name,
                                                   std::int64_t after_ts) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = find_locked(name);
  return s == nullptr ? std::vector<SeriesPoint>{} : s->points_since(after_ts);
}

std::vector<SeriesPoint> SeriesStore::points(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* s = find_locked(name);
  return s == nullptr ? std::vector<SeriesPoint>{} : s->points();
}

std::vector<std::pair<std::string, std::vector<SeriesPoint>>> SeriesStore::fresh_points(
    std::map<std::string, std::int64_t>& cursors, bool rewind, std::size_t max_points) const {
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min();
  std::vector<std::pair<std::string, std::vector<SeriesPoint>>> out;
  std::lock_guard<std::mutex> lock(mu_);
  // Both maps are name-sorted: one merge walk, hinted cursor inserts.
  auto cur = cursors.begin();
  for (const auto& [name, s] : series_) {
    while (cur != cursors.end() && cur->first < name) ++cur;
    bool known = cur != cursors.end() && cur->first == name;
    std::int64_t after = rewind || !known ? kNone : cur->second;
    if (s.empty() || s.last_ts() <= after) continue;
    std::vector<SeriesPoint> points = s.points_since(after);
    if (points.size() > max_points)
      points.erase(points.begin(),
                   points.end() - static_cast<std::ptrdiff_t>(max_points));
    if (known)
      cur->second = points.back().ts;
    else
      cur = cursors.emplace_hint(cur, name, points.back().ts);
    out.emplace_back(name, std::move(points));
  }
  return out;
}

std::uint64_t SeriesStore::scrapes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scrapes_;
}

std::string SeriesStore::format_text(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, s] : series_) {
    if (!prefix.empty() && name.rfind(prefix, 0) != 0) continue;
    if (s.empty()) continue;
    double span_s = static_cast<double>(s.last_ts() - s.points().front().ts) / 1e9;
    std::snprintf(line, sizeof(line), "%-40s last=%-12g at=%s points=%zu span=%.1fs\n",
                  name.c_str(), s.last_value(), format_time(s.last_ts()).c_str(),
                  s.size(), span_s);
    out += line;
  }
  if (out.empty())
    out = prefix.empty() ? "(no series retained)\n"
                         : "(no series match prefix " + prefix + ")\n";
  return out;
}

}  // namespace snipe::obs
