// Minimal leveled logger.
//
// The simulator is deterministic and single-process, so logging is plain
// stderr with a global level; no locking or timestamps needed. The level is
// read from the CAGVT_LOG environment variable (error|warn|info|debug|trace)
// once, at first use.
#pragma once

#include <cstdarg>

namespace cagvt {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

/// Global log level (initialized from $CAGVT_LOG, default kWarn).
LogLevel log_level();

/// Override the global level programmatically (tests, CLI --verbose).
void set_log_level(LogLevel level);

/// printf-style sink; prefer the CAGVT_LOG_* macros.
void log_write(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace cagvt

#define CAGVT_LOG_AT(lvl, ...)                             \
  do {                                                     \
    if (static_cast<int>(lvl) <= static_cast<int>(::cagvt::log_level())) \
      ::cagvt::log_write(lvl, __VA_ARGS__);                \
  } while (0)

#define CAGVT_LOG_ERROR(...) CAGVT_LOG_AT(::cagvt::LogLevel::kError, __VA_ARGS__)
#define CAGVT_LOG_WARN(...) CAGVT_LOG_AT(::cagvt::LogLevel::kWarn, __VA_ARGS__)
#define CAGVT_LOG_INFO(...) CAGVT_LOG_AT(::cagvt::LogLevel::kInfo, __VA_ARGS__)
#define CAGVT_LOG_DEBUG(...) CAGVT_LOG_AT(::cagvt::LogLevel::kDebug, __VA_ARGS__)
#define CAGVT_LOG_TRACE(...) CAGVT_LOG_AT(::cagvt::LogLevel::kTrace, __VA_ARGS__)
