// Shared helpers for the SNIPE benchmark harnesses.
//
// Every bench runs a deterministic simulation and reports *virtual-time*
// metrics (bandwidth, latency, recovery time) through google-benchmark
// counters; wall-clock time measures only the simulator itself.  Because
// runs are deterministic, each case runs a single iteration.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenarios.hpp"
#include "simnet/world.hpp"

namespace snipe::bench {

/// SNIPE_BENCH_METRICS=0 (or "off") disables the metrics registry and every
/// World's trace ring for the whole bench run — the opt-out knob used to measure
/// instrumentation overhead against an uninstrumented baseline.
inline bool metrics_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SNIPE_BENCH_METRICS");
    bool on = !(env != nullptr &&
                (std::string(env) == "0" || std::string(env) == "off"));
    obs::MetricsRegistry::global().set_enabled(on);
    obs::Tracer::global().set_enabled(on);
    return on;
  }();
  return enabled;
}

/// SNIPE_BENCH_FLOW=1 additionally records causal flow events.  Off by
/// default.  No packet carries a flow id (each end derives it), so this
/// knob moves no byte (the replay contract): it toggles only minting and
/// the per-fragment event recording — the runtime overhead DESIGN.md
/// quantifies with bench_datapath run both ways.
inline bool flow_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SNIPE_BENCH_FLOW");
    bool on = env != nullptr && std::string(env) != "0" && std::string(env) != "off";
    obs::Tracer::global().set_flow_enabled(on);
    return on;
  }();
  return enabled;
}

/// Clears the global metric state so one bench case cannot pollute the
/// next (cases run back-to-back in one process).  Traces need no clearing:
/// each case's World owns its ring.
inline void reset_metrics() {
  metrics_enabled();
  flow_enabled();
  obs::MetricsRegistry::global().reset();
}

/// Copies the registry snapshot into google-benchmark counters (prefixed
/// "m:"), so --benchmark_out JSON embeds the run's metrics next to the
/// virtual-time results.  `prefix` filters by metric name ("" = all).
inline void embed_metrics(benchmark::State& state, const std::string& prefix = "") {
  if (!metrics_enabled()) return;
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (!prefix.empty() && m.name.rfind(prefix, 0) != 0) continue;
    if (m.kind == obs::MetricValue::Kind::histogram) {
      if (m.count == 0) continue;
      state.counters["m:" + m.name + ".count"] = static_cast<double>(m.count);
      state.counters["m:" + m.name + ".p50"] = m.p50;
      state.counters["m:" + m.name + ".p95"] = m.p95;
      state.counters["m:" + m.name + ".p99"] = m.p99;
    } else {
      if (m.value == 0) continue;  // keep the JSON readable
      state.counters["m:" + m.name] = m.value;
    }
  }
}

/// Media indexed by bench argument.
inline simnet::MediaModel media_by_index(int i) {
  switch (i) {
    case 0: return simnet::ethernet10();
    case 1: return simnet::ethernet100();
    case 2: return simnet::atm155();
    case 3: return simnet::myrinet();
    case 4: return simnet::wan_t3();
    default: return simnet::internet_lossy();
  }
}

inline const char* media_name(int i) {
  switch (i) {
    case 0: return "eth10";
    case 1: return "eth100";
    case 2: return "atm155";
    case 3: return "myrinet";
    case 4: return "wan_t3";
    default: return "internet";
  }
}

}  // namespace snipe::bench
