#include "util/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/time.hpp"

namespace snipe {

namespace log_detail {

namespace {

/// Serializes emit() and guards the sink pointer: log lines from different
/// threads (or a -DSNIPE_SANITIZE=thread run) must not interleave.
std::mutex& emit_mutex() {
  static std::mutex mu;
  return mu;
}

LogSink& sink() {
  static LogSink s;  // nullptr = stderr
  return s;
}

LogLevel initial_threshold() {
  const char* env = std::getenv("SNIPE_LOG_LEVEL");
  return parse_log_level(env == nullptr ? "" : env, LogLevel::warn);
}

}  // namespace

LogLevel& threshold() {
  static LogLevel level = initial_threshold();
  return level;
}

void emit(LogLevel level, std::optional<std::int64_t> stamp, const std::string& component,
          const std::string& text) {
  static const char* names[] = {"TRACE", "DEBUG", "INFO ", "WARN ", "ERROR", "OFF"};
  std::lock_guard<std::mutex> lock(emit_mutex());
  if (auto& s = sink(); s) {
    s(level, stamp, component, text);
    return;
  }
  std::fprintf(stderr, "[%s] %s %-20s %s\n", stamp ? format_time(*stamp).c_str() : "--",
               names[static_cast<int>(level)], component.c_str(), text.c_str());
}

}  // namespace log_detail

LogLevel set_log_level(LogLevel level) {
  LogLevel old = log_detail::threshold();
  log_detail::threshold() = level;
  return old;
}

LogSink set_log_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(log_detail::emit_mutex());
  LogSink old = std::move(log_detail::sink());
  log_detail::sink() = std::move(sink);
  return old;
}

LogLevel parse_log_level(const std::string& name, LogLevel fallback) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  if (lower == "trace") return LogLevel::trace;
  if (lower == "debug") return LogLevel::debug;
  if (lower == "info") return LogLevel::info;
  if (lower == "warn" || lower == "warning") return LogLevel::warn;
  if (lower == "error") return LogLevel::error;
  if (lower == "off" || lower == "none") return LogLevel::off;
  return fallback;
}

std::string format_time(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%06llds", static_cast<long long>(t / 1'000'000'000),
                static_cast<long long>((t % 1'000'000'000) / 1'000));
  return buf;
}

}  // namespace snipe
