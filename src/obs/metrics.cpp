#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace snipe::obs {

void Gauge::add(double delta) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

void Histogram::observe(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  std::size_t i = std::lower_bound(kBounds.begin(), kBounds.end(), v) - kBounds.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

HistogramSketch Histogram::sketch() const {
  HistogramSketch s;
  for (std::size_t i = 0; i < kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count();
  s.sum = sum();
  return s;
}

double Histogram::quantile(double q) const { return sketch().quantile(q); }

void HistogramSketch::merge(const HistogramSketch& other) {
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
}

double HistogramSketch::quantile(double q) const {
  const auto& bounds = Histogram::kBounds;
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), then walk the buckets.
  double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      double lo = i == 0 ? 0 : bounds[i - 1];
      // The +inf bucket has no upper edge; report its lower edge.
      if (i == bounds.size()) return lo;
      double hi = bounds[i];
      double into = (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return bounds.back();
}

std::uint64_t Counter::value() const {
  return rollup_ == nullptr ? v_.load(std::memory_order_relaxed)
                            : rollup_->rollup_value(*name_);
}

SourceHandle& SourceHandle::operator=(SourceHandle&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void SourceHandle::release() {
  if (registry_ != nullptr) registry_->retire_source(id_);
  registry_ = nullptr;
  id_ = 0;
}

// ---------- registry ----------

namespace {

/// A StatsSink over a callable.
template <class AddFn>
class FnSink final : public StatsSink {
 public:
  explicit FnSink(AddFn fn) : fn_(std::move(fn)) {}
  void add(const char* name, std::uint64_t value) override { fn_(name, value); }

 private:
  AddFn fn_;
};

template <class AddFn>
FnSink<AddFn> make_sink(AddFn fn) {
  return FnSink<AddFn>(std::move(fn));
}

}  // namespace

/// What a snapshot accumulates before it is flattened: counter-like and
/// gauge values by name, histograms as mergeable bucket arrays.
struct MetricsRegistry::Rollup {
  std::map<std::string, MetricValue, std::less<>> values;
  HistogramMap histograms;
  /// Non-null: keep only this name (a roll-up counter's value()).
  const std::string* only = nullptr;

  bool wants(std::string_view name) const { return only == nullptr || *only == name; }

  void add_counter(std::string_view name, double v) {
    if (!wants(name)) return;
    auto it = values.find(name);
    if (it == values.end()) {
      it = values.emplace(std::string(name), MetricValue{}).first;
      it->second.name = it->first;
    }
    it->second.value += v;
  }
  void add_gauge(const std::string& name, double v) {
    if (!wants(name)) return;
    auto [it, inserted] = values.try_emplace(name);
    if (inserted) {
      it->second.kind = MetricValue::Kind::gauge;
      it->second.name = name;
    }
    it->second.value += v;
  }
};

MetricsRegistry::MetricsRegistry(MetricsRegistry& parent)
    : enabled_(parent.enabled_), parent_(&parent) {
  std::lock_guard<std::mutex> lock(parent.mu_);
  next_ = parent.first_child_;
  if (next_ != nullptr) next_->prev_ = this;
  parent.first_child_ = this;
}

MetricsRegistry::~MetricsRegistry() {
  if (parent_ == nullptr) return;
  // Parent lock first, then ours — the roll-up's order.  The dead host's
  // counters and histograms stay in the parent's totals; its gauges (a
  // level, not an amount) go with it.
  std::lock_guard<std::mutex> parent_lock(parent_->mu_);
  Rollup mine;
  mine.histograms.swap(parent_->retained_histograms_);  // merge in place
  {
    std::lock_guard<std::mutex> lock(mu_);
    collect_locked(mine);
  }
  mine.histograms.swap(parent_->retained_histograms_);
  for (auto& [name, v] : mine.values)
    if (v.kind == MetricValue::Kind::counter)
      parent_->retained_[name] += static_cast<std::uint64_t>(v.value);
  if (prev_ != nullptr)
    prev_->next_ = next_;
  else
    parent_->first_child_ = next_;
  if (next_ != nullptr) next_->prev_ = prev_;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // intentionally leaked
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, nullptr).first;
    // A root's counters read the roll-up; a child's read themselves.
    it->second.reset(new Counter(enabled_, parent_ == nullptr ? this : nullptr, &it->first));
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(enabled_))).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, std::unique_ptr<Histogram>(new Histogram(enabled_))).first;
  return *it->second;
}

SourceHandle MetricsRegistry::add_stats(StatsVisitor visit) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t id = next_source_id_++;
  sources_.emplace(id, std::move(visit));
  return SourceHandle(this, id);
}

void MetricsRegistry::retire_source(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(id);
  if (it == sources_.end()) return;
  auto sink = make_sink([this](const char* name, std::uint64_t v) {
    auto r = retained_.find(std::string_view(name));
    if (r == retained_.end()) r = retained_.emplace(name, 0).first;
    r->second += v;
  });
  it->second(sink);
  sources_.erase(it);
}

void MetricsRegistry::reset_locked() {
  for (auto& [name, c] : counters_) c->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, g] : gauges_) g->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
  }
  retained_.clear();
  retained_histograms_.clear();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  reset_locked();
  for (MetricsRegistry* c = first_child_; c != nullptr; c = c->next_) {
    std::lock_guard<std::mutex> child_lock(c->mu_);
    c->reset_locked();
  }
}

void MetricsRegistry::collect_locked(Rollup& out) const {
  for (const auto& [name, c] : counters_)
    out.add_counter(name, static_cast<double>(c->v_.load(std::memory_order_relaxed)));
  for (const auto& [name, total] : retained_)
    out.add_counter(name, static_cast<double>(total));
  auto sink = make_sink([&out](const char* name, std::uint64_t v) {
    out.add_counter(name, static_cast<double>(v));
  });
  for (const auto& [id, visit] : sources_) visit(sink);
  for (const auto& [name, g] : gauges_) out.add_gauge(name, g->value());
  if (out.only != nullptr) return;  // a counter's roll-up reads no histogram
  for (const auto& [name, h] : histograms_) out.histograms[name].merge(h->sketch());
  for (const auto& [name, h] : retained_histograms_) out.histograms[name].merge(h);
}

void MetricsRegistry::collect(Rollup& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  collect_locked(out);
  for (const MetricsRegistry* c = first_child_; c != nullptr; c = c->next_) {
    std::lock_guard<std::mutex> child_lock(c->mu_);
    c->collect_locked(out);
  }
}

std::uint64_t MetricsRegistry::rollup_value(const std::string& name) const {
  Rollup r;
  r.only = &name;
  collect(r);
  auto it = r.values.find(name);
  return it == r.values.end() || it->second.kind != MetricValue::Kind::counter
             ? 0
             : static_cast<std::uint64_t>(it->second.value);
}

Snapshot MetricsRegistry::snapshot() const {
  Rollup r;
  collect(r);
  for (auto& [name, h] : r.histograms) {
    MetricValue v;
    v.kind = MetricValue::Kind::histogram;
    v.name = name;
    v.count = h.count;
    v.sum = h.sum;
    v.p50 = h.quantile(0.50);
    v.p95 = h.quantile(0.95);
    v.p99 = h.quantile(0.99);
    // A histogram shadows a same-named counter/gauge, as it always has.
    r.values.insert_or_assign(name, std::move(v));
  }
  Snapshot out;
  out.reserve(r.values.size());
  for (auto& [name, v] : r.values) out.push_back(std::move(v));
  return out;
}

std::vector<std::pair<std::string, HistogramSketch>> MetricsRegistry::histogram_sketches()
    const {
  Rollup r;
  collect(r);
  std::vector<std::pair<std::string, HistogramSketch>> out;
  out.reserve(r.histograms.size());
  for (auto& [name, h] : r.histograms) out.emplace_back(name, std::move(h));
  return out;
}

std::string MetricsRegistry::format_text() const {
  std::string out;
  char line[256];
  for (const MetricValue& m : snapshot()) {
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

}  // namespace snipe::obs
