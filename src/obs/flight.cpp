#include "obs/flight.hpp"

#include <algorithm>

#include "util/time.hpp"

namespace snipe::obs {

std::string format_flight_lines(const std::vector<FlightEvent>& events) {
  std::string out;
  for (const auto& e : events) {
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

FlightRecorder::FlightRecorder(std::string owner, std::function<std::int64_t()> clock)
    : owner_(std::move(owner)), clock_(std::move(clock)) {}

void FlightRecorder::record(std::string cat, std::string what, std::string detail) {
  FlightEvent e{clock_(), owner_, std::move(cat), std::move(what), std::move(detail)};
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(std::move(e));
  } else {
    ring_[next_] = std::move(e);
    next_ = (next_ + 1) % kCapacity;
    ++dropped_;
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::uint64_t cursor = 0;
  return events_since(cursor, kCapacity);
}

std::vector<FlightEvent> FlightRecorder::events_since(std::uint64_t& cursor,
                                                     std::size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t size = ring_.size();
  const std::uint64_t total = size + dropped_;
  std::size_t fresh = static_cast<std::size_t>(std::min<std::uint64_t>(total - cursor, size));
  std::size_t n = std::min(fresh, max);
  std::vector<FlightEvent> out;
  out.reserve(n);
  // next_ is the oldest slot once the ring is full (and 0 before).
  for (std::size_t k = size - n; k < size; ++k) out.push_back(ring_[(next_ + k) % size]);
  cursor = total;
  return out;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string FlightRecorder::dump() const {
  std::vector<FlightEvent> all = events();
  if (all.empty())
    return owner_.empty() ? "(flight recorder empty)"
                          : "(no flight events for host " + owner_ + ")";
  std::string out = "flight recorder (" + std::to_string(all.size()) + " events";
  if (std::uint64_t lost = dropped(); lost > 0)
    out += ", " + std::to_string(lost) + " older dropped";
  return out + "):\n" + format_flight_lines(all);
}

}  // namespace snipe::obs
