// Declarative alerting over retained series (DESIGN.md §watchtower).
//
// An AlertEngine evaluates a set of rules against a host's SeriesStore on
// the virtual clock.  Rules are data, not code: threshold / rate-of-change /
// flap-count / ratio conditions with hysteresis — a condition must hold
// `for_ns` before an alert fires (pending -> firing) and must stay clear
// `clear_ns` before it resolves (firing -> idle), so a single noisy sample
// neither pages nor un-pages anybody.  Host rules are judged only on the
// host, by its Watchtower; the fleet sees their transitions as the flight
// entries the host's beacons carry.
//
// FleetWatch is the collector's one verdict: a host's silence, which only
// the receiving side can infer.  It reads beacon arrivals (FleetStore::
// stale()), not shipped series.
//
// Determinism contract: evaluation draws no randomness and sends no packet
// on a data network; state transitions are flight-recorder entries in the
// "watchtower" category, and nothing else.  So a seeded run's replay
// digest is bit-identical with the watchtower on or off (ChaosWatch).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/fleet.hpp"
#include "obs/series.hpp"

namespace snipe::obs {

class FlightRecorder;

/// The flight category every alert transition is recorded under.
inline constexpr const char* kWatchtowerCategory = "watchtower";

enum class AlertKind {
  threshold,  ///< last value of `metric` vs threshold
  rate,       ///< per-second delta of `metric` over `window_ns` vs threshold
  flap,       ///< value changes of `metric` inside `window_ns` vs threshold
  ratio,      ///< window delta of `metric` / window delta of `denominator`
};

struct AlertRule {
  std::string name;
  AlertKind kind = AlertKind::threshold;
  std::string metric;
  std::string denominator;       ///< ratio rules only
  bool above = true;             ///< condition: value > threshold (else <)
  double threshold = 0;
  std::int64_t window_ns = 10'000'000'000;  ///< rate/flap/ratio lookback
  std::int64_t for_ns = 0;       ///< condition must hold this long to fire
  std::int64_t clear_ns = 0;     ///< must stay clear this long to resolve
  std::string detail;            ///< human hint carried on flight entries
};

enum class AlertState { idle, pending, firing };

const char* to_string(AlertState state);

/// One rule's live status, as of the last evaluate().
struct AlertStatus {
  std::string rule;
  std::string metric;
  AlertState state = AlertState::idle;
  std::int64_t since = 0;     ///< when the current state was entered
  double value = 0;           ///< last evaluated condition input
  std::uint64_t fired = 0;    ///< lifetime pending->firing transitions
  std::uint64_t resolved = 0; ///< lifetime firing->idle transitions
};

/// Evaluates rules against one SeriesStore.  Mutex-guarded for the same
/// reason the store is: evaluation runs on an engine thread, status is
/// read from the console / gateway.
class AlertEngine {
 public:
  struct Options {
    /// Ring the transitions are recorded in (nullptr = record none).
    FlightRecorder* flight = nullptr;
  };

  AlertEngine() : AlertEngine(Options{}) {}
  explicit AlertEngine(Options options);

  void add_rule(AlertRule rule);
  void add_rules(const std::vector<AlertRule>& rules);
  std::size_t rule_count() const;

  /// Evaluates every rule at virtual time `now_ns`; missing series make a
  /// condition false (a host that never ran a subsystem cannot page).
  void evaluate(const SeriesStore& series, std::int64_t now_ns);

  std::vector<AlertStatus> status() const;
  std::size_t firing_count() const;
  std::uint64_t fired_total() const;
  /// Lifetime fire count for one rule (0 when unknown) — the soak's
  /// per-fault-class assertion hook.
  std::uint64_t fired(const std::string& rule) const;
  std::uint64_t resolved(const std::string& rule) const;

  std::string format_text() const;

  /// Built-in local rules: SRUDP RTO storms, route-epoch flap churn,
  /// incast goodput collapse (sustained retransmit share), file-repair
  /// churn.  Thresholds are calibrated against the chaos gauntlet's clean
  /// profiles (zero false positives on loss-free seeds).
  static std::vector<AlertRule> builtin_rules();

 private:
  struct RuleState {
    AlertRule rule;
    AlertState state = AlertState::idle;
    std::int64_t since = 0;
    std::int64_t clear_since = 0;  ///< condition-clear start while firing
    double value = 0;
    std::uint64_t fired = 0;
    std::uint64_t resolved = 0;
  };

  bool condition(const RuleState& rs, const SeriesStore& series,
                 std::int64_t now_ns, double& value) const;
  void emit(const RuleState& rs, const char* what);

  Options options_;
  mutable std::mutex mu_;
  std::vector<RuleState> rules_;
  std::uint64_t fired_total_ = 0;
};

/// Collector-side silence detector: one `beacon_stale` verdict per
/// beaconing host.  It fires once a host's silence exceeds the store's
/// `stale_after_beacons` of the period that host advertises (FleetStore::
/// stale(), the rule /fleet/health prints), and resolves when its next
/// beacon lands.  It needs no series, so a host exporting without a
/// watchtower is judged like any other.
class FleetWatch {
 public:
  /// Transitions are recorded in `flight` — the collector host's ring —
  /// each naming its subject host (nullptr = record none).
  explicit FleetWatch(const FleetStore& store, FlightRecorder* flight = nullptr);

  /// Judges every host that has beaconed at `now_ns`.  Runs on a timer:
  /// silence fires precisely when nothing arrives to react to.
  void evaluate(std::int64_t now_ns);

  std::size_t firing_count() const;
  std::uint64_t fired_total() const;
  std::uint64_t fired(const std::string& host) const;
  std::uint64_t resolved(const std::string& host) const;

  /// One line per beaconing host: its beacon_stale state and counts.
  std::string format_text() const;

 private:
  struct HostState {
    bool firing = false;
    double missed = 0;        ///< beacon periods elapsed at last evaluate
    std::uint64_t fired = 0;
    std::uint64_t resolved = 0;
  };

  void emit(const std::string& host, const HostState& hs, const char* what);

  const FleetStore& store_;
  FlightRecorder* flight_;
  mutable std::mutex mu_;
  std::map<std::string, HostState> hosts_;
};

}  // namespace snipe::obs
