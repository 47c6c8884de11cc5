// Declarative alerting over retained series (DESIGN.md §watchtower).
//
// An AlertEngine evaluates a set of rules against a SeriesStore on the
// virtual clock.  Rules are data, not code: threshold / rate-of-change /
// staleness / flap-count / ratio conditions with hysteresis — a condition
// must hold `for_ns` before an alert fires (pending -> firing) and must
// stay clear `clear_ns` before it resolves (firing -> idle), so a
// single noisy sample neither pages nor un-pages anybody.
//
// Determinism contract: evaluation draws no randomness and sends no packet
// on a data network; state transitions are flight-recorder entries in the
// "watchtower" category, and nothing else.  So a seeded run's replay
// digest is bit-identical with the watchtower on or off (ChaosWatch).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
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
  staleness,  ///< seconds since `metric` last gained a point vs threshold
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
  std::string scope;          ///< host name for fleet engines, "" locally
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
    std::string scope;                  ///< subject of the rules (host name)
    /// Ring the transitions are recorded in (nullptr = record none).  An
    /// entry about a scope other than the ring's owner names it in detail.
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
  std::uint64_t resolved_total() const;
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
  /// Beacon staleness: a host whose shipped series stop advancing for
  /// `stale_after_beacons` of its advertised `period_ns`.
  static AlertRule beacon_stale_rule(std::int64_t period_ns, double stale_after_beacons);

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
  std::uint64_t resolved_total_ = 0;
};

/// Collector-side alerting: one AlertEngine per beaconing host, evaluated
/// over that host's shipped series (FleetStore::host_series).  Staleness
/// rules fire for a host whose exporter crashed or was partitioned away —
/// its series simply stop advancing — and resolve after the heal, when
/// fresh points arrive.
class FleetWatch {
 public:
  struct Options {
    /// Per-host rule set; empty selects builtin_rules() plus a
    /// beacon_stale_rule() on the period the host's beacons advertise and
    /// the store's stale_after_beacons (none for a host advertising no
    /// period).
    std::vector<AlertRule> rules;
  };

  /// Transitions are recorded in `flight` — the collector host's ring —
  /// each naming its subject host (nullptr = record none).
  explicit FleetWatch(const FleetStore& store, FlightRecorder* flight = nullptr)
      : FleetWatch(store, Options{}, flight) {}
  FleetWatch(const FleetStore& store, Options options, FlightRecorder* flight = nullptr);

  /// Evaluates every known host's engine at `now_ns` (hosts appear as
  /// their first beacon lands).
  void evaluate(std::int64_t now_ns);

  std::vector<AlertStatus> status() const;  ///< all hosts, scope = host
  std::size_t firing_count() const;
  std::uint64_t fired_total() const;
  std::uint64_t resolved_total() const;
  std::uint64_t fired(const std::string& host, const std::string& rule) const;
  std::uint64_t resolved(const std::string& host, const std::string& rule) const;

  std::string format_text() const;

 private:
  const FleetStore& store_;
  Options options_;
  FlightRecorder* flight_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<AlertEngine>> engines_;
};

}  // namespace snipe::obs
