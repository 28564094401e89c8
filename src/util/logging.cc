#include "util/logging.h"

#include <atomic>

#include "util/mutex.h"

namespace pier {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};

/// Serializes sink writes across threads. A function-local static so logging
/// works during static initialization of other translation units.
Mutex& SinkMutex() {
  static Mutex mu;
  return mu;
}
}  // namespace

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal {

void EmitLogLine(LogLevel level, const std::string& line) {
  MutexLock lock(SinkMutex());
  std::fputs(line.c_str(), stderr);
  if (level == LogLevel::kError) std::fflush(stderr);
}

}  // namespace internal

}  // namespace pier
