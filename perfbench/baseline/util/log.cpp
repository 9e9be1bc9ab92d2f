#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cagvt {
namespace {

LogLevel parse_level(const char* s) {
  if (s == nullptr) return LogLevel::kWarn;
  if (std::strcmp(s, "error") == 0) return LogLevel::kError;
  if (std::strcmp(s, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(s, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(s, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(s, "trace") == 0) return LogLevel::kTrace;
  return LogLevel::kWarn;
}

std::atomic<int>& level_storage() {
  static std::atomic<int> level{static_cast<int>(parse_level(std::getenv("CAGVT_LOG")))};
  return level;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kTrace: return "TRACE";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return static_cast<LogLevel>(level_storage().load(std::memory_order_relaxed)); }

void set_log_level(LogLevel level) {
  level_storage().store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_write(LogLevel level, const char* fmt, ...) {
  std::fprintf(stderr, "[cagvt %s] ", level_name(level));
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace cagvt
