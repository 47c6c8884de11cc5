#include "simnet/engine.hpp"

#include <algorithm>
#include <cassert>

namespace snipe::simnet {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

Engine::Engine(std::uint64_t seed) : rng_(seed) {}

Engine::~Engine() { clear(); }

std::uint32_t Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.armed = false;
  s.fn.reset();
  // Bumping the generation retires every outstanding TimerId and heap entry
  // naming this slot; generation 0 is reserved for null TimerIds.
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
}

void Engine::heap_push(HeapItem item) {
  heap_.push_back(item);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / kHeapArity;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Engine::heap_pop() {
  assert(!heap_.empty());
  HeapItem last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Hole-style sift-down: shift the winning child up into the hole and only
  // write `last` once at its final position (a swap chain writes three times
  // per level, and on a large pending set every level is a cache miss).
  std::size_t i = 0;
  while (true) {
    std::size_t first = i * kHeapArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    std::size_t stop = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < stop; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void Engine::skim_stale() {
  // stale_ counts cancelled events whose heap entries are still buried; when
  // it is zero the top is live by construction and the slot probe (a random
  // read into a potentially huge slab) is skipped entirely.
  while (stale_ > 0 && !heap_.empty()) {
    const HeapItem& top = heap_[0];
    if (slots_[top.slot].armed && slots_[top.slot].gen == top.gen) return;
    heap_pop();
    --stale_;
  }
}

TimerId Engine::push_event(SimTime when, EventFn fn, bool weak) {
  std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.weak = weak;
  s.armed = true;
  std::uint64_t seq = next_seq_++;
  heap_push(HeapItem{when, seq, slot, s.gen});
  ++live_;
  if (!weak) ++strong_pending_;
  return TimerId{slot, s.gen};
}

TimerId Engine::schedule(SimDuration delay, EventFn fn) {
  assert(delay >= 0 && "cannot schedule into the past");
  return push_event(now_ + delay, std::move(fn), false);
}

TimerId Engine::schedule_at(SimTime when, EventFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  return push_event(when, std::move(fn), false);
}

TimerId Engine::schedule_weak(SimDuration delay, EventFn fn) {
  assert(delay >= 0 && "cannot schedule into the past");
  return push_event(now_ + delay, std::move(fn), true);
}

void Engine::cancel(TimerId id) {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (!s.armed || s.gen != id.gen) return;  // already fired or cancelled
  if (!s.weak) --strong_pending_;
  --live_;
  ++stale_;
  // The heap entry stays behind as a stale tombstone; skim_stale drops it
  // when it reaches the top.  Destroy the callback now so event-owned
  // resources are released at cancel time, not at pop time.
  release_slot(id.slot);
}

bool Engine::step() {
  skim_stale();
  if (heap_.empty()) return false;
  HeapItem top = heap_[0];
  // Pull the slot's cache lines in while the sift-down below runs; on large
  // pending sets both are misses and this overlaps them.
  __builtin_prefetch(&slots_[top.slot], 1);
  heap_pop();
  assert(top.time >= now_);
  now_ = top.time;
  Slot& s = slots_[top.slot];
  EventFn fn = std::move(s.fn);
  if (!s.weak) --strong_pending_;
  --live_;
  release_slot(top.slot);
  ++events_run_;
  fn();
  return true;
}

std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && strong_pending_ > 0 && step()) ++n;
  return n;
}

void Engine::clear() {
  // Event destructors may re-enter cancel()/clear() (an endpoint captured
  // by one event cancels its own timers when destroyed), so detach all
  // state first and destroy the callbacks from a local vector.
  std::vector<EventFn> doomed;
  doomed.reserve(live_);
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.armed) continue;
    doomed.push_back(std::move(s.fn));
    s.armed = false;
    s.fn.reset();
    // The slab survives clear() (only generations move on), so TimerIds
    // issued before the wipe can never collide with events scheduled after.
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(i);
  }
  heap_.clear();
  live_ = 0;
  stale_ = 0;
  strong_pending_ = 0;
  doomed.clear();  // runs the event destructors last
}

void Engine::run_until(SimTime t) {
  while (true) {
    skim_stale();
    if (heap_.empty() || heap_[0].time > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

std::size_t Engine::run_before(SimTime end, bool weak_too) {
  std::size_t n = 0;
  while (true) {
    if (!weak_too && strong_pending_ == 0) break;
    skim_stale();
    if (heap_.empty() || heap_[0].time >= end) break;
    step();
    ++n;
  }
  return n;
}

SimTime Engine::next_event_time() {
  skim_stale();
  return heap_.empty() ? kNever : heap_[0].time;
}

}  // namespace snipe::simnet
