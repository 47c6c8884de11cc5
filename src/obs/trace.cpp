#include "obs/trace.hpp"

#include <cstdio>

namespace snipe::obs {

namespace {

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_event_json(std::string& out, const TraceEvent& e, int tid) {
  char buf[64];
  out += "{\"name\":\"";
  json_escape(out, e.name);
  out += "\",\"cat\":\"";
  json_escape(out, e.cat);
  out += "\",\"ph\":\"";
  out += static_cast<char>(e.phase);
  out += "\",\"pid\":1,\"tid\":";
  std::snprintf(buf, sizeof(buf), "%d", tid);
  out += buf;
  // Chrome's ts unit is microseconds; keep sub-µs precision as a fraction.
  std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f", static_cast<double>(e.ts) / 1e3);
  out += buf;
  if (e.phase == TraceEvent::Phase::complete) {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f", static_cast<double>(e.dur) / 1e3);
    out += buf;
  }
  if (e.phase == TraceEvent::Phase::instant) out += ",\"s\":\"t\"";
  if (e.id != 0) {
    // Flow binding id; hex keeps 64 bits exact (JSON numbers would not).
    std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(e.id));
    out += buf;
  }
  // Bind flow arrows to the enclosing slice at both ends.
  if (e.phase == TraceEvent::Phase::flow_end) out += ",\"bp\":\"e\"";
  if (!e.args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const auto& [k, v] : e.args) {
      if (!first) out += ',';
      first = false;
      out += '"';
      json_escape(out, k);
      out += "\":\"";
      json_escape(out, v);
      out += '"';
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

Tracer::Tracer(Tracer& root)
    : enabled_(root.enabled_), flow_enabled_(root.flow_enabled_), capacity_(root.capacity_) {}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // intentionally leaked
  return *instance;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void Tracer::push(TraceEvent event) {
  if (size_ < capacity_) {
    if (size_ == 0) ring_.reserve(capacity_);  // a ring that records nothing allocates nothing
    ring_.push_back(std::move(event));
    ++size_;
    next_ = size_ % capacity_;
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }
}

void Tracer::instant(std::int64_t ts, std::string cat, std::string name, Args args) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::instant;
  e.cat = std::move(cat);
  e.name = std::move(name);
  e.ts = ts;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  push(std::move(e));
}

void Tracer::flow(std::int64_t ts, TraceEvent::Phase phase, std::string cat,
                  std::string name, std::uint64_t id, Args args) {
  if (!flow_enabled() || !enabled()) return;
  TraceEvent e;
  e.phase = phase;
  e.cat = std::move(cat);
  e.name = std::move(name);
  e.ts = ts;
  e.id = id;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  push(std::move(e));
}

SpanId Tracer::begin_span(std::int64_t ts, std::string cat, std::string name) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  SpanId id = next_span_++;
  open_[id] = OpenSpan{std::move(cat), std::move(name), ts};
  return id;
}

void Tracer::end_span(std::int64_t ts, SpanId id, Args args) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  OpenSpan span = std::move(it->second);
  open_.erase(it);
  if (!enabled()) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::complete;
  e.cat = std::move(span.cat);
  e.name = std::move(span.name);
  e.ts = span.start;
  e.dur = ts - span.start;
  if (e.dur < 0) e.dur = 0;
  e.args = std::move(args);
  push(std::move(e));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest first: when the ring has wrapped, the oldest entry is at next_.
  std::size_t start = size_ < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) out.push_back(ring_[(start + i) % size_]);
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string Tracer::chrome_json() const {
  std::vector<TraceEvent> all = events();
  // Stable category -> tid mapping, in order of first appearance.
  std::map<std::string, int> tids;
  std::vector<std::string> cats;
  for (const auto& e : all) {
    if (tids.emplace(e.cat, static_cast<int>(tids.size()) + 1).second)
      cats.push_back(e.cat);
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata so each category renders as a labelled track.
  for (const auto& cat : cats) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(tids[cat]);
    out += ",\"args\":{\"name\":\"";
    json_escape(out, cat);
    out += "\"}}";
  }
  for (const auto& e : all) {
    if (!first) out += ',';
    first = false;
    append_event_json(out, e, tids[e.cat]);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::string json = chrome_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = written == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace snipe::obs
