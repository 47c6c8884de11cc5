#include "obs/flight.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.hpp"
#include "util/time.hpp"

namespace snipe::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

std::size_t FlightRecorder::capacity_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return kDefaultCapacity;
  char* end = nullptr;
  unsigned long long v = std::strtoull(value, &end, 0);
  if (end == value || v == 0) return kDefaultCapacity;
  return static_cast<std::size_t>(v);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = [] {  // intentionally leaked
    return new FlightRecorder(capacity_from_env(std::getenv("SNIPE_FLIGHT_CAPACITY")));
  }();
  return *instance;
}

void FlightRecorder::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
}

bool FlightRecorder::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(capacity_);
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void FlightRecorder::record(std::string host, std::string cat, std::string what,
                            std::string detail) {
  // Timestamp with the tracer's clock so flight lines line up with trace
  // events (virtual time inside a simulation, wall time outside).
  std::int64_t ts = Tracer::global().now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  FlightEvent e{ts, std::move(host), std::move(cat), std::move(what), std::move(detail)};
  if (size_ < capacity_) {
    ring_.push_back(std::move(e));
    ++size_;
    next_ = size_ % capacity_;
  } else {
    ring_[next_] = std::move(e);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }
}

std::vector<FlightEvent> FlightRecorder::events(const std::string& host) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  out.reserve(size_);
  std::size_t start = size_ < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) {
    const FlightEvent& e = ring_[(start + i) % size_];
    if (!host.empty() && !e.host.empty() && e.host != host) continue;
    out.push_back(e);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::events_since(std::uint64_t& cursor,
                                                     const std::string& host,
                                                     std::size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = static_cast<std::uint64_t>(size_) + dropped_;
  std::vector<FlightEvent> out;
  if (total > cursor) {
    std::size_t fresh =
        static_cast<std::size_t>(std::min<std::uint64_t>(total - cursor, size_));
    std::size_t start = size_ < capacity_ ? 0 : next_;
    // Newest first, so only the newest `max` matches are ever copied.
    for (std::size_t k = 0; k < fresh && out.size() < max; ++k) {
      const FlightEvent& e = ring_[(start + size_ - 1 - k) % size_];
      if (!host.empty() && !e.host.empty() && e.host != host) continue;
      out.push_back(e);
    }
    std::reverse(out.begin(), out.end());
  }
  cursor = total;
  return out;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::uint64_t>(size_) + dropped_;
}

std::string FlightRecorder::dump(const std::string& host) const {
  std::vector<FlightEvent> all = events(host);
  if (all.empty())
    return host.empty() ? "(flight recorder empty)"
                        : "(no flight events for host " + host + ")";
  std::string out = "flight recorder (" + std::to_string(all.size()) + " events";
  std::uint64_t lost = dropped();
  if (lost > 0) out += ", " + std::to_string(lost) + " older dropped";
  out += "):\n";
  for (const auto& e : all) {
    out += format_time(e.ts);
    out += " [";
    out += e.host.empty() ? "*" : e.host;
    out += "] ";
    out += e.cat;
    out += '/';
    out += e.what;
    if (!e.detail.empty()) {
      out += ' ';
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

namespace {
void (*previous_abort_handler)(int) = nullptr;

// Best-effort by design: string formatting is not async-signal-safe, but a
// SIGABRT from a sanitizer or assert is already past the point of graceful
// recovery — a garbled dump beats no postmortem at all.
void abort_with_dump(int sig) {
  std::string dump = FlightRecorder::global().dump();
  std::fputs("\n=== flight recorder dump (SIGABRT) ===\n", stderr);
  std::fputs(dump.c_str(), stderr);
  std::fputs("=== end flight recorder dump ===\n", stderr);
  std::fflush(stderr);
  std::signal(sig, previous_abort_handler == nullptr ? SIG_DFL : previous_abort_handler);
  std::raise(sig);
}
}  // namespace

void FlightRecorder::install_abort_handler() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  auto prev = std::signal(SIGABRT, abort_with_dump);
  if (prev != SIG_ERR && prev != SIG_DFL && prev != SIG_IGN && prev != abort_with_dump)
    previous_abort_handler = prev;
}

}  // namespace snipe::obs
