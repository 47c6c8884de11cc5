// Unified metrics for every SNIPE component (consoles "monitor" daemons,
// resource managers and migrating tasks — §3, §5 — which presumes the
// system can report on itself).
//
// Three instrument kinds live in a MetricsRegistry:
//   * Counter  — monotonically increasing event count ("srudp.retransmits");
//   * Gauge    — a value that goes up and down ("rm.live_hosts");
//   * Histogram — distribution over one program-wide bucket layout
//     (Histogram::kBounds) with p50/p95/p99 extraction ("srudp.rtt_ms",
//     "rcds.replication_lag_ms").
//
// Registries are host-scoped.  Each simulated host owns one (Host::
// metrics()), a *child* of the process-wide MetricsRegistry::global(): the
// components bound to the host (SRUDP, stream, RPC, RCDS, files, daemon,
// RM, the telemetry exporter) register there, so the host's watchtower and
// beacon read exactly that host's instruments — O(own host), and a metric
// labelled with host X describes host X (§3.3/§5.5: each daemon monitors
// its own host).  global() is the roll-up: its snapshot() merges its own
// host-less instruments with every live child (counters and gauges summed,
// histograms bucket-merged) plus what dead children left behind, and its
// counters' value() reads the same fleet total.  Children share the root's
// enable flag, so global().set_enabled(false) silences every host.
//
// Components that already keep a per-instance stats struct (SrudpStats,
// RcServerStats, ...) do not double-count: their fields stay the single
// point of increment (as obs::Cell, a thin counter cell) and the instance
// registers one *stats visitor* that streams every field into a StatsSink
// at snapshot time — one registration per component, not one per field.
// A registry sums every live visitor's fields with the same name, so ten
// SRUDP endpoints on a host show up as one "srudp.messages_sent" total.
// When an instance dies, its final values are folded into a retained total
// so a snapshot after the fact still reports the whole run.
//
// Everything is dependency-free, cheap when disabled (one relaxed atomic
// load), and safe to call from multiple threads (registration takes a
// mutex; increments are lock-free atomics; a sharded world touches each
// host registry from its shard's thread, and the roll-up takes the root's
// lock, then each child's — never the other way round).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace snipe::obs {

/// A plain counter cell for per-instance stats structs.  Deliberately a
/// trivial, copyable value type so existing `stats()` accessors keep their
/// exact semantics (comparisons, tuples, streaming) while the registry
/// reads the cell through a registered source.
struct Cell {
  std::uint64_t v = 0;

  constexpr operator std::uint64_t() const { return v; }
  Cell& operator++() {
    ++v;
    return *this;
  }
  Cell& operator+=(std::uint64_t n) {
    v += n;
    return *this;
  }
};

class MetricsRegistry;

/// Monotonic event counter.  Stable address for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// This counter's count — or, for a counter of global(), the fleet
  /// total under its name (the value global().snapshot() reports).
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter(const std::atomic<bool>* enabled, const MetricsRegistry* rollup,
          const std::string* name)
      : enabled_(enabled), rollup_(rollup), name_(name) {}
  std::atomic<std::uint64_t> v_{0};
  const std::atomic<bool>* enabled_;
  const MetricsRegistry* rollup_;  ///< the root whose roll-up value() reads
  const std::string* name_;        ///< the registry's key (stable map node)
};

/// A value that can go up and down (loads, queue depths).
class Gauge {
 public:
  void set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double delta);
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<double> v_{0};
  const std::atomic<bool>* enabled_;
};

struct HistogramSketch;

/// Fixed-bucket histogram over kBounds, the one layout every SNIPE
/// histogram uses, plus an implicit +inf bucket for the tail.  Quantiles
/// interpolate linearly inside the bucket.
class Histogram {
 public:
  /// Ascending bucket upper bounds in milliseconds, 10 µs .. 60 s, roughly
  /// 1-2-5 per decade: a Myrinet RTT and a 30 s anti-entropy lag in one
  /// instrument.
  static constexpr std::array<double, 21> kBounds = {
      0.01, 0.02, 0.05, 0.1,  0.2,  0.5,  1,    2,     5,     10,   20,
      50,   100,  200,  500,  1000, 2000, 5000, 10000, 30000, 60000};
  /// One bucket per bound plus the +inf tail.
  static constexpr std::size_t kBuckets = kBounds.size() + 1;

  void observe(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// q in [0,1]; returns 0 when empty.
  double quantile(double q) const;
  /// The current buckets, count and sum as a mergeable value.
  HistogramSketch sketch() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  const std::atomic<bool>* enabled_;
};

/// Where a stats visitor streams its component's counter fields: one
/// add(name, value) per field.
class StatsSink {
 public:
  virtual void add(const char* name, std::uint64_t value) = 0;

 protected:
  ~StatsSink() = default;
};

/// One component's stats visitor: streams every field of its stats struct.
using StatsVisitor = std::function<void(StatsSink&)>;

/// RAII registration of one stats visitor; unregistering folds the
/// visitor's final values into the registry's retained totals.  Declare it
/// *after* the stats struct it reads so it unregisters first on
/// destruction.
class SourceHandle {
 public:
  SourceHandle() = default;
  SourceHandle(SourceHandle&& other) noexcept { *this = std::move(other); }
  SourceHandle& operator=(SourceHandle&& other) noexcept;
  SourceHandle(const SourceHandle&) = delete;
  SourceHandle& operator=(const SourceHandle&) = delete;
  ~SourceHandle() { release(); }

  void release();

 private:
  friend class MetricsRegistry;
  SourceHandle(MetricsRegistry* registry, std::uint64_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

/// One entry of a registry snapshot.
struct MetricValue {
  enum class Kind { counter, gauge, histogram };
  Kind kind = Kind::counter;
  std::string name;
  double value = 0;         ///< counter total or gauge value
  std::uint64_t count = 0;  ///< histogram only
  double sum = 0;           ///< histogram only
  double p50 = 0, p95 = 0, p99 = 0;
};

using Snapshot = std::vector<MetricValue>;

/// A histogram reduced to its mergeable form: bucket occupancy counts over
/// Histogram::kBounds (+inf last), total count and sum.  The registry rolls
/// host histograms up in this form and telemetry beacons carry it
/// (obs/fleet.hpp).  Every sketch shares the one layout, so two always merge
/// losslessly: quantiles over the merged sketch equal quantiles over a
/// single histogram fed the union of the samples.
struct HistogramSketch {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0;

  template <class Io>
  void fields(Io& io) {
    io(buckets, count, sum);
  }
  bool empty() const { return count == 0; }

  /// Adds `other` bucket-wise.
  void merge(const HistogramSketch& other);

  /// The 1-based rank q*count walked over the cumulative buckets, with
  /// linear interpolation inside the bucket; 0 when empty.  Histogram, the
  /// registry roll-up and the fleet store all answer through this one
  /// function, so a merged sketch reports exactly what one big histogram
  /// would.
  double quantile(double q) const;
};

class MetricsRegistry {
 public:
  /// A stand-alone root registry with its own enable flag.
  MetricsRegistry() = default;
  /// A child of `parent` (a host's registry, with global() as the parent):
  /// shares the parent's enable flag and rolls up into its snapshot.  The
  /// child folds its final totals into the parent when it dies.
  explicit MetricsRegistry(MetricsRegistry& parent);
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide roll-up over every host registry, plus whatever is
  /// registered on it directly (host-less instruments).
  static MetricsRegistry& global();

  /// Disabling makes every increment/observe a no-op (the opt-out knob the
  /// benches use to measure instrumentation overhead); on a child it flips
  /// the shared root flag.  Stats visitors are free either way — they cost
  /// nothing until snapshot().
  void set_enabled(bool enabled) { enabled_->store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

  /// Named instruments; the same name always returns the same object.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers a component's stats visitor, run at every snapshot.
  [[nodiscard]] SourceHandle add_stats(StatsVisitor visit);

  /// Zeroes counters, gauges, histograms and retained totals — a root's
  /// children included.  Live visitors are *not* reset (they mirror
  /// component stats structs); benches that want a clean slate should
  /// scope component lifetimes accordingly.
  void reset();

  /// Consistent view of every instrument, sorted by name.  Visitor fields
  /// and retained totals merge into counter entries; a root merges in its
  /// children.
  Snapshot snapshot() const;

  /// Every histogram as a sketch, sorted by name (the form a telemetry
  /// beacon carries so collectors can merge exactly).
  std::vector<std::pair<std::string, HistogramSketch>> histogram_sketches() const;

  /// Plain-text scrape format for consoles: one "name value" line per
  /// counter/gauge, one "name count=N sum=S p50=.. p95=.. p99=.." line per
  /// histogram.
  std::string format_text() const;

 private:
  friend class SourceHandle;
  friend class Counter;
  struct Rollup;
  using HistogramMap = std::map<std::string, HistogramSketch, std::less<>>;

  void retire_source(std::uint64_t id);
  /// Adds this registry's instruments, visitors and retained totals, then
  /// each child's, into `out`, taking the locks in roll-up order.
  void collect(Rollup& out) const;
  /// This registry alone; the caller holds mu_.
  void collect_locked(Rollup& out) const;
  void reset_locked();
  std::uint64_t rollup_value(const std::string& name) const;

  mutable std::mutex mu_;
  std::atomic<bool> own_enabled_{true};
  std::atomic<bool>* enabled_ = &own_enabled_;  ///< the root's flag
  MetricsRegistry* parent_ = nullptr;
  /// Live children, an intrusive list, newest first (guarded by the
  /// parent's mu_): O(1) link/unlink, no per-child allocation.
  MetricsRegistry* first_child_ = nullptr;
  MetricsRegistry* prev_ = nullptr;
  MetricsRegistry* next_ = nullptr;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::uint64_t, StatsVisitor> sources_;
  /// Totals of dead visitors (and, on a root, of dead children's counters).
  std::map<std::string, std::uint64_t, std::less<>> retained_;
  /// Dead children's histograms (root only).
  HistogramMap retained_histograms_;
  std::uint64_t next_source_id_ = 1;
};

}  // namespace snipe::obs
