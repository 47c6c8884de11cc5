// Metric time-series retention for the watchtower layer (DESIGN.md
// §watchtower).
//
// The registry (obs/metrics.hpp) answers "what is the value now"; nothing
// in the system remembered "what was it a minute ago", so slow failures —
// repair churn, congestion collapse, a link that flaps every 40 seconds —
// were invisible to every surface built so far.  SeriesStore closes that
// gap: a per-metric fixed-capacity ring of (virtual_time, value) samples
// scraped from the registry on a weak virtual-time timer; the watchtower
// records what the registry cannot see (its own NICs' busy time and queue
// depth, the route epoch) right after each scrape.
//
// Retention is bounded two ways:
//   * run collapse — appending a value equal to the last two points slides
//     the newest point's timestamp forward instead of growing the ring, so
//     a flat counter costs two points no matter how long it stays flat;
//   * pair decimation — a full ring keeps every other point (newest kept
//     unconditionally), halving the resolution of old history instead of
//     dropping it.  Cumulative counters survive decimation exactly: any
//     subset of points preserves the deltas between the retained stamps.
//
// The store is mutex-guarded like the registry and the flight recorder:
// scrapes run on a simulation engine thread while the console / gateway /
// beacon builder read from wherever the operator is.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace snipe::obs {

class MetricsRegistry;

/// One retained sample: virtual nanoseconds + the value observed then.
struct SeriesPoint {
  std::int64_t ts = 0;
  double value = 0;

  template <class Io>
  void fields(Io& io) {
    io(ts, value);
  }
  friend bool operator==(const SeriesPoint&, const SeriesPoint&) = default;
};

/// A single metric's history ring.  Appends must carry non-decreasing
/// timestamps (the scrape timer guarantees it); a stale append is ignored
/// and an equal-timestamp append overwrites, which makes re-applying a
/// resync beacon idempotent on the collector side.
class Series {
 public:
  explicit Series(std::size_t capacity = 256);

  void append(std::int64_t ts, double value);

  /// Order-tolerant variant for collector-side folding: a stamp at or past
  /// the newest behaves exactly like append(); an older stamp backfills an
  /// interior hole instead of being dropped, so a full-beacon resync can
  /// heal the gap a lost delta left.  Idempotent like append().
  void merge(std::int64_t ts, double value);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const std::vector<SeriesPoint>& points() const { return points_; }

  /// Points with ts strictly after `after_ts`, oldest first.
  std::vector<SeriesPoint> points_since(std::int64_t after_ts) const;

  double last_value() const { return points_.empty() ? 0 : points_.back().value; }
  std::int64_t last_ts() const { return points_.empty() ? 0 : points_.back().ts; }

  /// Step interpolation: the value of the latest point at or before `ts`.
  /// Before the first retained point the first value answers — for the
  /// cumulative counters this store mostly holds, that understates early
  /// rates rather than inventing a burst from an assumed zero.
  double value_at(std::int64_t ts) const;

  /// last_value() - value_at(now - window): the change over the window.
  double delta(std::int64_t window_ns, std::int64_t now_ns) const;

  /// Number of value *changes* between consecutive retained points whose
  /// newer stamp falls inside (now - window, now] — the flap count.
  std::size_t changes_in(std::int64_t window_ns, std::int64_t now_ns) const;

 private:
  void compact();

  std::size_t capacity_;
  std::vector<SeriesPoint> points_;
};

/// The per-process history store: name -> Series, plus the scrape loop's
/// entry points.
class SeriesStore {
 public:
  /// Points each series keeps before pair decimation halves its history.
  static constexpr std::size_t kCapacityPerSeries = 256;

  struct Options {
    /// The registry scrape() reads: a watchtower binds its host's; nullptr
    /// scrapes the process-wide roll-up, MetricsRegistry::global().
    const MetricsRegistry* registry = nullptr;
  };

  SeriesStore() : SeriesStore(Options{}) {}
  explicit SeriesStore(Options options);

  /// Appends one sample (creating the series on first use).
  void record(const std::string& name, std::int64_t ts, double value);

  /// Order-tolerant record (Series::merge): collectors fold shipped points
  /// through this so a resync can backfill holes left by lost deltas.
  void merge(const std::string& name, std::int64_t ts, double value);

  /// Scrapes every counter and gauge of the bound registry (histograms
  /// contribute their observation count as "<name>.count").
  void scrape(std::int64_t now_ns);

  std::vector<std::string> names(const std::string& prefix = {}) const;
  std::size_t series_count() const;
  bool has(const std::string& name) const;

  /// Point queries; unknown series answer 0 / empty.
  double last(const std::string& name) const;
  std::int64_t last_ts(const std::string& name) const;
  double value_at(const std::string& name, std::int64_t ts) const;
  double delta(const std::string& name, std::int64_t window_ns, std::int64_t now_ns) const;
  /// delta / window, in per-second units.
  double rate_per_sec(const std::string& name, std::int64_t window_ns,
                      std::int64_t now_ns) const;
  std::size_t changes_in(const std::string& name, std::int64_t window_ns,
                         std::int64_t now_ns) const;
  std::vector<SeriesPoint> points_since(const std::string& name,
                                        std::int64_t after_ts) const;
  std::vector<SeriesPoint> points(const std::string& name) const;

  /// One pass under one lock, for the beacon builder: every series with
  /// points newer than its entry in `cursors` (all points when absent or
  /// `rewind`), the newest `max_points` of them, name-sorted; advances
  /// `cursors` to the newest point shipped.
  std::vector<std::pair<std::string, std::vector<SeriesPoint>>> fresh_points(
      std::map<std::string, std::int64_t>& cursors, bool rewind,
      std::size_t max_points) const;

  std::uint64_t scrapes() const;

  /// One line per series ("name last=... at=... points=N span=..s"),
  /// optionally prefix-filtered — the `series` console verb / /series body.
  std::string format_text(const std::string& prefix = {}) const;

 private:
  const Series* find_locked(const std::string& name) const;
  Series& series_locked(const std::string& name);

  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Series> series_;
  std::uint64_t scrapes_ = 0;
};

}  // namespace snipe::obs
