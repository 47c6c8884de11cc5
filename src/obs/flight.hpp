// Per-host flight recorder: a bounded, mutex-guarded ring of recent
// structured events (protocol state transitions, RTO fires, route switches,
// fault injections, RCDS anti-entropy rounds, RM liveness decisions) kept
// alongside the tracer so a failed run carries its own postmortem.
//
// The tracer answers "show me the whole timeline"; the flight recorder
// answers "what were the last N notable things before the crash".  It is
// always on (recording never perturbs the simulation — no RNG draws, no
// timers, no wire bytes), deliberately small, and dumpable as plain text:
// automatically when a chaos invariant trips (the chaos suite's failure
// listener), when a sanitizer aborts (install_abort_handler), or on demand
// from the console (`flight [host]`).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace snipe::obs {

struct FlightEvent {
  std::int64_t ts = 0;  ///< trace-clock nanoseconds (virtual inside a sim)
  std::string host;     ///< originating host ("" = whole-world event)
  std::string cat;      ///< component: "srudp", "stream", "fault", "rm", ...
  std::string what;     ///< event kind: "rto", "route_switch", "crash", ...
  std::string detail;   ///< free-form context
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every component reports into.  Its ring
  /// capacity is kDefaultCapacity unless SNIPE_FLIGHT_CAPACITY is set in
  /// the environment (any strtoull base; read once, at first use).
  static FlightRecorder& global();

  /// Parses a SNIPE_FLIGHT_CAPACITY value: any strtoull base, falling back
  /// to kDefaultCapacity on null/empty/non-numeric/zero.  Exposed so the
  /// env contract is unit-testable without racing global()'s one-shot read.
  static std::size_t capacity_from_env(const char* value);

  void set_enabled(bool enabled);
  bool enabled() const;

  /// Drops every recorded event and resets the dropped count.
  void clear();
  /// Changing capacity also clears.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Appends one event, timestamped with the tracer's clock (virtual time
  /// inside a simulation).  Oldest events are overwritten when full.
  void record(std::string host, std::string cat, std::string what,
              std::string detail = {});

  /// Events oldest-first, optionally filtered to one host ("" = all;
  /// world-level events with an empty host always match).
  std::vector<FlightEvent> events(const std::string& host = {}) const;
  /// The events recorded since `cursor` (a total_recorded() value; the
  /// call advances it), filtered like events(host), oldest first, at most
  /// the newest `max`.  Entries that rotated out of the ring unseen are
  /// lost — bounded memory beats completeness here.  Copies only what is
  /// new: the beacon builder's per-tick read.
  std::vector<FlightEvent> events_since(std::uint64_t& cursor, const std::string& host,
                                        std::size_t max) const;
  std::size_t size() const;
  std::uint64_t dropped() const;
  /// Events ever recorded (size() + dropped()); the telemetry exporter's
  /// cursor for "what is new since the last beacon".
  std::uint64_t total_recorded() const;

  /// Human-readable dump, one "12.345678s [host] cat/what detail" line per
  /// event, newest last; says so when empty.
  std::string dump(const std::string& host = {}) const;

  /// Installs a SIGABRT handler that dumps the global recorder to stderr —
  /// the hook that turns a sanitizer abort or failed assert into a
  /// postmortem.  Idempotent; chains to the previously installed handler.
  static void install_abort_handler();

 private:
  mutable std::mutex mu_;
  bool enabled_ = true;
  std::vector<FlightEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace snipe::obs
