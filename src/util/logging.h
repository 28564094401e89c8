// Minimal leveled logging. PIER nodes log to stderr; the level is a process-
// wide setting so simulations with thousands of nodes stay quiet by default.

#ifndef PIER_UTIL_LOGGING_H_
#define PIER_UTIL_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pier {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4
};

/// Process-wide minimum level actually emitted. Defaults to kWarn so large
/// simulations are quiet; tests and examples may lower it.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {

/// Write one complete line to the process log sink (stderr). Serialized by
/// an internal pier::Mutex: the Physical Runtime's I/O thread and metrics
/// scrapers log concurrently with the event thread, and a half-interleaved
/// line is useless in a crash triage.
void EmitLogLine(LogLevel level, const std::string& line);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) : level_(level) {
    stream_ << "[" << Name(level) << " " << Basename(file) << ":" << line
            << "] ";
  }
  ~LogMessage() {
    stream_ << "\n";
    EmitLogLine(level_, stream_.str());
  }
  std::ostringstream& stream() { return stream_; }

 private:
  static const char* Name(LogLevel l) {
    switch (l) {
      case LogLevel::kDebug: return "D";
      case LogLevel::kInfo: return "I";
      case LogLevel::kWarn: return "W";
      case LogLevel::kError: return "E";
      default: return "?";
    }
  }
  static const char* Basename(const char* path) {
    const char* base = path;
    for (const char* p = path; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    return base;
  }
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define PIER_LOG(level)                                             \
  if (static_cast<int>(::pier::LogLevel::level) <                   \
      static_cast<int>(::pier::GetLogLevel())) {                    \
  } else                                                            \
    ::pier::internal::LogMessage(::pier::LogLevel::level, __FILE__, \
                                 __LINE__)                          \
        .stream()

#define PIER_CHECK(cond)                                              \
  if (cond) {                                                         \
  } else                                                              \
    (::pier::internal::LogMessage(::pier::LogLevel::kError, __FILE__, \
                                  __LINE__)                           \
         .stream()                                                    \
     << "CHECK failed: " #cond " "),                                  \
        std::abort()

}  // namespace pier

#endif  // PIER_UTIL_LOGGING_H_
