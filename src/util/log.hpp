// Leveled, component-tagged logging, aware of simulated time.
//
// Each Logger reads its owner's clock — inside a simulation, the engine of
// the host the component is bound to — so log lines carry that component's
// virtual time, which is what makes distributed traces (spawn on host A,
// message at t, migration at t') readable even with several Worlds alive.
// A Logger with no clock stamps "--".  Logging defaults to `warn` so tests
// and benches stay quiet; examples turn on `info`.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>

namespace snipe {

enum class LogLevel { trace = 0, debug, info, warn, error, off };

/// Receives every emitted record (already threshold-filtered) with its
/// stamp: the logger's clock at emission, empty for a clockless logger.
/// Installed by tests that capture output; nullptr restores the stderr sink.
using LogSink = std::function<void(LogLevel level, std::optional<std::int64_t> stamp,
                                   const std::string& component, const std::string& text)>;

namespace log_detail {
/// Global minimum level; messages below it are discarded cheaply.  First
/// use honors the SNIPE_LOG_LEVEL environment variable (trace, debug,
/// info, warn, error, off).
LogLevel& threshold();
/// Emits one formatted line (serialized by an internal mutex).
void emit(LogLevel level, std::optional<std::int64_t> stamp, const std::string& component,
          const std::string& text);
}  // namespace log_detail

/// Sets the global log threshold; returns the previous one.
LogLevel set_log_level(LogLevel level);

/// Routes records to `sink` instead of stderr; returns the previous sink
/// (nullptr meaning stderr) so tests can restore it.
LogSink set_log_sink(LogSink sink);

/// Parses a level name ("warn", "DEBUG", ...); returns `fallback` when the
/// name is unknown or empty.
LogLevel parse_log_level(const std::string& name, LogLevel fallback);

/// A named logger; cheap to construct, typically one per component instance
/// ("daemon@hostA", "rcds@catalog2", ...).  `clock` stamps its records; it
/// is read only for records that pass the threshold.
class Logger {
 public:
  explicit Logger(std::string component, std::function<std::int64_t()> clock = {})
      : component_(std::move(component)), clock_(std::move(clock)) {}

  template <typename... Args>
  void trace(const Args&... args) const { write(LogLevel::trace, args...); }
  template <typename... Args>
  void debug(const Args&... args) const { write(LogLevel::debug, args...); }
  template <typename... Args>
  void info(const Args&... args) const { write(LogLevel::info, args...); }
  template <typename... Args>
  void warn(const Args&... args) const { write(LogLevel::warn, args...); }
  template <typename... Args>
  void error(const Args&... args) const { write(LogLevel::error, args...); }

  const std::string& component() const { return component_; }

 private:
  template <typename... Args>
  void write(LogLevel level, const Args&... args) const {
    if (level < log_detail::threshold()) return;
    std::ostringstream os;
    (os << ... << args);
    std::optional<std::int64_t> stamp;
    if (clock_) stamp = clock_();
    log_detail::emit(level, stamp, component_, os.str());
  }

  std::string component_;
  std::function<std::int64_t()> clock_;
};

}  // namespace snipe
