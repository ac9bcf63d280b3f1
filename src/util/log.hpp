#pragma once

#include <cstdarg>
#include <string>

namespace geoanon::util {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Process-wide log threshold; messages below it are dropped cheaply.
/// The simulator defaults to kWarn so large sweeps stay quiet.
void set_log_level(LogLevel level);
LogLevel log_level();

/// printf-style logging to stderr with a level tag. The threshold check is
/// atomic (lock-free when filtered out) and emission is serialized by a
/// mutex, so concurrent SweepRunner workers may log without tearing
/// (ordering between threads is best-effort).
void log(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

inline void log_debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
inline void log_info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
inline void log_warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
inline void log_error(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

void vlog(LogLevel level, const char* fmt, va_list args);

inline void log_debug(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    vlog(LogLevel::kDebug, fmt, args);
    va_end(args);
}
inline void log_info(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    vlog(LogLevel::kInfo, fmt, args);
    va_end(args);
}
inline void log_warn(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    vlog(LogLevel::kWarn, fmt, args);
    va_end(args);
}
inline void log_error(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    vlog(LogLevel::kError, fmt, args);
    va_end(args);
}

}  // namespace geoanon::util
