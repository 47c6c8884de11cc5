// The discrete-event engine every SNIPE component runs on.
//
// This replaces the paper's multi-site Internet testbed (see DESIGN.md §2):
// hosts, daemons, protocols and applications are all callbacks scheduled on
// one virtual clock.  Determinism rules:
//   * events at equal times fire in scheduling order (monotonic sequence
//     numbers break ties);
//   * all randomness flows from the engine's seeded Rng (or forks of it).
//
// The queue is a 4-ary min-heap on (time, seq) over a slot slab, with
// generation-checked lazy cancellation: cancel() destroys the callback and
// bumps the slot's generation in O(1), and the stale heap entry is skipped
// when it surfaces.  See DESIGN.md §engine-cancellation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace snipe::simnet {

/// Move-only callable with a small inline buffer.  Every closure src/ and
/// the benchmark harness schedule fits it, so no event pays the heap
/// allocation std::function would make: a datagram's hop or delivery event
/// is a (World*, shard, slot) handle into the World's flight slab (24 B),
/// and timers capture a few pointers and ids, never a Packet, a name or a
/// handler.  40 B also makes an EventFn 48 B and an engine slot one 64 B
/// cache line.  A closure that outgrows the buffer still works, from the
/// heap.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 40;

  /// True when a callable of type F is stored in the inline buffer rather
  /// than on the heap.
  template <typename F>
  static constexpr bool fits_inline = sizeof(std::decay_t<F>) <= kInlineBytes &&
                                      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(storage_, o.storage_);
    o.ops_ = nullptr;
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst from src and destroys src (noexcept by
    /// construction: only nothrow-movable types go inline).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* dst, void* src) {
          ::new (dst) Fn*(*static_cast<Fn**>(src));
        },
        [](void* p) { delete *static_cast<Fn**>(p); },
    };
    return &ops;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Handle for cancelling a scheduled event.  Default-constructed handles
/// are "null" and safe to cancel.  A handle names (slot, generation); once
/// the event fires or is cancelled the slot's generation moves on, so a
/// stale handle can never cancel a stranger's event.
struct TimerId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  bool valid() const { return gen != 0; }
};

class Engine {
 public:
  /// Sentinel "no pending event" time (next_event_time when the heap is
  /// empty); also the "unbounded" window end for run_before.
  static constexpr SimTime kNever = INT64_MAX;

  explicit Engine(std::uint64_t seed = 1);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` from now (delay >= 0).
  TimerId schedule(SimDuration delay, EventFn fn);
  /// Schedules `fn` at an absolute time (>= now).
  TimerId schedule_at(SimTime when, EventFn fn);
  /// Schedules a *weak* (housekeeping) event: periodic background ticks —
  /// anti-entropy rounds, load reports, router refresh — that should not
  /// keep `run()` alive on their own.  `run()` stops once only weak events
  /// remain; `run_until`/`run_for` execute them like any other event.
  TimerId schedule_weak(SimDuration delay, EventFn fn);
  /// Cancels a pending event; cancelling a fired or null timer is a no-op.
  /// The event's callback (and anything it owns) is destroyed immediately.
  void cancel(TimerId id);

  /// Runs the earliest pending event; returns false if none are pending.
  bool step();
  /// Runs events until no *strong* events remain (weak housekeeping ticks
  /// do not count) or `max_events` have fired; returns the number run.
  std::size_t run(std::size_t max_events = static_cast<std::size_t>(-1));
  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);
  /// Runs events for the next `d` of virtual time.
  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Runs events with time strictly < `end` (the conservative-window
  /// primitive of the sharded World driver: a shard may execute freely up
  /// to, but not into, the synchronization horizon).  Does NOT advance the
  /// clock to `end` — `now()` stays at the last executed event, so a later
  /// window (or a cross-shard arrival at exactly `end`) can still be
  /// scheduled.  With `weak_too` false, stops early once only weak
  /// housekeeping events remain (Engine::run semantics).  Returns the
  /// number of events run.
  std::size_t run_before(SimTime end, bool weak_too = true);

  /// Time of the earliest live pending event, or kNever when none.
  SimTime next_event_time();

  /// Pending non-weak events (run() keeps going while this is nonzero).
  std::size_t strong_pending() const { return strong_pending_; }

  /// Moves the clock forward to `t` without running anything (requires that
  /// no event <= t is pending); the sharded driver uses this to align every
  /// shard's clock at the end of a run_until window sweep.
  void advance_to(SimTime t) {
    if (now_ < t) now_ = t;
  }

  /// The run-level RNG; components should fork() their own streams.
  Rng& rng() { return rng_; }

  /// Number of events executed so far (useful as a work metric in tests).
  std::uint64_t events_run() const { return events_run_; }

  /// Discards every pending event without running it.  World calls this in
  /// its destructor so event-owned resources (e.g. a migration relay's
  /// endpoint) are released while hosts still exist.
  void clear();

 private:
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    bool weak = false;
    bool armed = false;
  };
  struct HeapItem {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static bool earlier(const HeapItem& a, const HeapItem& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  TimerId push_event(SimTime when, EventFn fn, bool weak);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(HeapItem item);
  void heap_pop();
  /// Drops stale (cancelled) entries off the top; afterwards the top, if
  /// any, is a live event.
  void skim_stale();

  std::vector<HeapItem> heap_;       ///< 4-ary min-heap on (time, seq)
  std::vector<Slot> slots_;          ///< event slab indexed by TimerId::slot
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;             ///< armed events (strong + weak)
  std::size_t stale_ = 0;            ///< cancelled entries still in heap_
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_run_ = 0;
  std::size_t strong_pending_ = 0;
  Rng rng_;
};

}  // namespace snipe::simnet
