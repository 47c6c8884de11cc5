// Shared plumbing for the chaos suite (tests/chaos_test.cpp): seed
// handling, per-peer delivery ledgers, and the replay-digest log.
//
// Seed contract: every chaos scenario derives all of its randomness from
// one 64-bit seed — the world's engine seed, the FaultPlan seed and the
// workload sizes are all functions of it.  The suite runs each scenario
// across several seeds starting at chaos_seed(); set SNIPE_CHAOS_SEED to
// reproduce a CI failure locally with the exact same runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/fault.hpp"
#include "simnet/world.hpp"

namespace snipe::chaos {

/// Base seed for the suite: SNIPE_CHAOS_SEED when set (any strtoull base),
/// else the fixed default so CI runs are reproducible by default.
inline std::uint64_t chaos_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("SNIPE_CHAOS_SEED");
    if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 0);
    return 0xC7A05C0DEULL;
  }();
  return seed;
}

/// Deterministic pseudo-random payload; distinct (seed, index) pairs give
/// distinct contents so misordered or cross-wired deliveries cannot pass.
inline Bytes chaos_payload(std::size_t n, std::uint64_t seed, std::uint32_t index) {
  Bytes b(n);
  std::uint32_t x = static_cast<std::uint32_t>(seed ^ (seed >> 32)) * 2654435761u +
                    index * 40503u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    b[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

/// Appends one "<seed> <scenario> <digest>" line to the file named by
/// SNIPE_CHAOS_DIGEST_LOG (no-op when unset); `digest` is a replay digest
/// (World::replay_digest() or one network's NetStats::digest).  `sweep.sh
/// soak` points the sweep's runs at one log so cross-seed digest drift — a
/// scenario whose fingerprint changes between soak runs of the *same* seed
/// — is diffable after the fact.
inline void log_digest(const std::string& scenario, std::uint64_t seed,
                       std::uint64_t digest) {
  const char* path = std::getenv("SNIPE_CHAOS_DIGEST_LOG");
  if (path == nullptr || *path == '\0') return;
  if (std::FILE* f = std::fopen(path, "a")) {
    std::fprintf(f, "%llu %s %016llx\n", static_cast<unsigned long long>(seed),
                 scenario.c_str(), static_cast<unsigned long long>(digest));
    std::fclose(f);
  }
}

/// The flight timeline of the scenario running now, or else of the last
/// one that ran: what the suite's failure listener prints when an invariant
/// trips.  Declare one right after a scenario's World.  While it lives it
/// answers from that World's rings (World::flight_timeline()); going out of
/// scope, just before the World does, it keeps a copy.
class FlightWitness {
 public:
  explicit FlightWitness(simnet::World& world) : world_(world) { live() = this; }
  ~FlightWitness() {
    last() = world_.flight_timeline();
    live() = nullptr;
  }
  FlightWitness(const FlightWitness&) = delete;
  FlightWitness& operator=(const FlightWitness&) = delete;

  static std::vector<obs::FlightEvent> timeline() {
    return live() != nullptr ? live()->world_.flight_timeline() : last();
  }

 private:
  static FlightWitness*& live() {
    static FlightWitness* witness = nullptr;
    return witness;
  }
  static std::vector<obs::FlightEvent>& last() {
    static std::vector<obs::FlightEvent> timeline;
    return timeline;
  }

  simnet::World& world_;
};

/// Snapshot value of one counter-like metric in the global registry
/// (summed over live sources and retained totals); 0 when absent.  Chaos
/// tests compare *deltas* around a scenario because the registry is
/// process-global and earlier tests leave retained totals behind.
inline double metric_value(const std::string& name) {
  for (const auto& m : obs::MetricsRegistry::global().snapshot())
    if (m.name == name) return m.value;
  return 0;
}

/// Records every delivery for one receiving endpoint and checks the
/// per-peer-pair invariants: nothing lost, nothing duplicated, nothing
/// reordered, every payload byte-identical to what the sender queued.
struct DeliveryLedger {
  std::map<std::string, std::vector<Bytes>> sent;      ///< by sender host
  std::map<std::string, std::vector<Bytes>> received;  ///< by sender host

  void expect_sent(const std::string& from, Bytes payload) {
    sent[from].push_back(std::move(payload));
  }
  void on_deliver(const std::string& from, Bytes payload) {
    received[from].push_back(std::move(payload));
  }
  void on_deliver(const std::string& from, const Payload& payload) {
    received[from].push_back(payload.to_bytes());
  }

  /// True when every sent message arrived exactly once, in order, intact.
  /// On mismatch returns false and fills `why`.
  bool intact(std::string* why) const {
    for (const auto& [from, msgs] : sent) {
      auto it = received.find(from);
      std::size_t got = it == received.end() ? 0 : it->second.size();
      if (got != msgs.size()) {
        *why = "from " + from + ": sent " + std::to_string(msgs.size()) + ", delivered " +
               std::to_string(got);
        return false;
      }
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        if (it->second[i] != msgs[i]) {
          *why = "from " + from + ": message " + std::to_string(i) +
                 " corrupted or misordered";
          return false;
        }
      }
    }
    for (const auto& [from, msgs] : received) {
      if (!sent.count(from) && !msgs.empty()) {
        *why = "unexpected deliveries from " + from;
        return false;
      }
    }
    return true;
  }
};

}  // namespace snipe::chaos
