// Flight recorder: a bounded, mutex-guarded ring of recent structured events
// (protocol state transitions, RTO fires, route switches, fault injections,
// RCDS anti-entropy rounds, RM liveness decisions, alert transitions) kept
// by the host they happened on, so a failed run carries its own postmortem.
//
// Every simnet::Host owns one (Host::flight()) and every World owns one for
// world-level events such as FaultPlan actions (World::flight()).  A ring
// stamps its owner's name and reads its owner's clock (the host's engine,
// the World's control engine), so a busy host cannot rotate a quiet host's
// entries out, and two Worlds in one process never share a ring or a clock.
//
// The tracer answers "show me the whole timeline"; the flight recorder
// answers "what were the last N notable things before the crash".  It is
// always on (recording never perturbs the simulation — no RNG draws, no
// timers, no wire bytes), deliberately small, and dumpable as plain text:
// on demand from the console (`flight [host]`), shipped in telemetry
// beacons to the fleet timeline, and merged with every other ring of its
// World (World::flight_timeline()) when a chaos invariant trips.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace snipe::obs {

struct FlightEvent {
  std::int64_t ts = 0;  ///< owner's clock, nanoseconds (virtual inside a sim)
  std::string host;     ///< owning host ("" = the World's own ring)
  std::string cat;      ///< component: "srudp", "stream", "fault", "rm", ...
  std::string what;     ///< event kind: "rto", "route_switch", "crash", ...
  std::string detail;   ///< free-form context

  template <class Io>
  void fields(Io& io) {
    io(ts, host, cat, what, detail);
  }
};

/// One "12.345678s [host] cat/what detail" line per event, in the order
/// given; "*" stands for a World ring's empty host.  The one formatter
/// behind every flight dump: a single ring's, the fleet timeline's and a
/// World's merged timeline.
std::string format_flight_lines(const std::vector<FlightEvent>& events);

class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 4096;

  /// `owner` is stamped on every entry; `clock` timestamps them.  Nothing
  /// is allocated until the first record().
  FlightRecorder(std::string owner, std::function<std::int64_t()> clock);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const std::string& owner() const { return owner_; }

  /// Appends one event stamped with the owner's name and clock.  Once
  /// kCapacity events are held, each record overwrites the oldest.
  void record(std::string cat, std::string what, std::string detail = {});

  /// Events oldest-first.
  std::vector<FlightEvent> events() const;
  /// The events recorded since `cursor` (the call advances it), oldest
  /// first, at most the newest `max`.  Entries that rotated out of the ring
  /// unseen are lost — bounded memory beats completeness here.  Copies only
  /// what is new: the beacon builder's per-tick read.
  std::vector<FlightEvent> events_since(std::uint64_t& cursor, std::size_t max) const;
  /// Events overwritten by newer ones.
  std::uint64_t dropped() const;

  /// Human-readable dump (format_flight_lines under a count header),
  /// newest last; says so when empty.
  std::string dump() const;

 private:
  const std::string owner_;
  const std::function<std::int64_t()> clock_;
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  ///< grows to kCapacity, then wraps at next_
  std::size_t next_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace snipe::obs
