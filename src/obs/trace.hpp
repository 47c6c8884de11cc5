// Virtual-time tracing: span and instant events recorded into a bounded
// ring buffer and exportable as Chrome `trace_event` JSON, so a spawn on
// host A -> SRUDP retransmit -> multipath failover -> migration sequence
// renders as one timeline in chrome://tracing or https://ui.perfetto.dev.
//
// Every simnet::World owns one ring (World::tracer(), Host::tracer()), so
// two Worlds alive at once keep their own events.  The rings follow the
// process-wide switches held by Tracer::global(); nothing records into it.
// The tracer has no clock of its own: every caller passes the timestamp,
// and inside a simulation that is its own engine's now() (a host's
// components read the host's engine, world-level actions the control
// engine).  Each event carries a category ("transport", "rcds", "rm",
// "daemon", "core", ...) which becomes a named track in the exported trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace snipe::obs {

struct TraceEvent {
  enum class Phase : char {
    complete = 'X',  ///< span with start + duration
    instant = 'i',
    flow_start = 's',  ///< first hop of a cross-host causal flow
    flow_step = 't',   ///< intermediate hop (tx, retransmit, rx, ...)
    flow_end = 'f',    ///< final delivery hop
  };
  Phase phase = Phase::instant;
  std::string cat;
  std::string name;
  std::int64_t ts = 0;   ///< nanoseconds, as the caller stamped it
  std::int64_t dur = 0;  ///< nanoseconds, complete events only
  std::uint64_t id = 0;  ///< flow binding id (flow_* phases), 0 = none
  std::vector<std::pair<std::string, std::string>> args;
};

/// Handle for an in-flight span; 0 is "null" (e.g. tracer disabled at
/// begin time) and safe to end.
using SpanId = std::uint64_t;

class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// A stand-alone ring with its own switches, keeping the newest
  /// `capacity` events.  The buffer is allocated by the first record.
  explicit Tracer(std::size_t capacity = 16384);
  /// A ring that follows `root`'s switches (a World's ring, with global()
  /// as the root): setting either switch on it flips the root's.
  explicit Tracer(Tracer& root);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide switches every World's ring follows.
  static Tracer& global();

  void set_enabled(bool enabled) { enabled_->store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

  /// Flow recording is a separate, off-by-default switch: no packet carries
  /// the trace context (each end derives it, and only while this is on), so
  /// enabling it cannot change packet bytes or virtual timestamps — the
  /// replay contract — and the per-fragment flow events are only recorded
  /// when this is on.  The check
  /// is one relaxed atomic load, cheap enough for the per-fragment path.
  void set_flow_enabled(bool enabled) {
    flow_enabled_->store(enabled, std::memory_order_relaxed);
  }
  bool flow_enabled() const { return flow_enabled_->load(std::memory_order_relaxed); }

  /// Drops every recorded event (open spans survive) and resets the
  /// dropped-event count.
  void clear();

  /// Records a zero-duration event at `ts` (nanoseconds).
  void instant(std::int64_t ts, std::string cat, std::string name, Args args = {});

  /// Records one hop of a causal flow at `ts` (Chrome phases 's'/'t'/'f',
  /// bound by `id`).  No-op unless both enabled() and flow_enabled(); call
  /// sites on hot paths should check flow_enabled() before building args.
  void flow(std::int64_t ts, TraceEvent::Phase phase, std::string cat, std::string name,
            std::uint64_t id, Args args = {});

  /// Starts a span at `ts`; `end_span` at a later `ts` records it as a
  /// complete event stamped with the begin time and the elapsed duration.
  /// Spans may cross async callbacks — carry the SpanId in the completion.
  SpanId begin_span(std::int64_t ts, std::string cat, std::string name);
  void end_span(std::int64_t ts, SpanId id, Args args = {});

  /// Events in record order, oldest first (the buffer keeps the newest
  /// `capacity` events given at construction; `dropped()` counts the
  /// overwritten ones).
  std::vector<TraceEvent> events() const;
  std::uint64_t dropped() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}); timestamps in
  /// microseconds, one named track per category.
  std::string chrome_json() const;
  /// Writes chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct OpenSpan {
    std::string cat;
    std::string name;
    std::int64_t start = 0;
  };

  void push(TraceEvent event);

  mutable std::mutex mu_;
  std::atomic<bool> own_enabled_{true};
  std::atomic<bool> own_flow_enabled_{false};
  std::atomic<bool>* enabled_ = &own_enabled_;  ///< the root's switch
  std::atomic<bool>* flow_enabled_ = &own_flow_enabled_;
  std::vector<TraceEvent> ring_;
  const std::size_t capacity_;
  std::size_t next_ = 0;  ///< ring write index
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::map<SpanId, OpenSpan> open_;
  SpanId next_span_ = 1;
};

}  // namespace snipe::obs
