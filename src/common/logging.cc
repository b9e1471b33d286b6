#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace dana {

namespace {
int g_log_level = static_cast<int>(LogLevel::kWarning);

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level = static_cast<int>(level);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(static_cast<int>(level) >= g_log_level),
      level_(level) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
  // A CHECK failure routes through kError with "Check failed" text; the
  // abort happens here so the full message is flushed first.
  if (level_ == LogLevel::kError && stream_.str().find("Check failed") !=
                                        std::string::npos) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace dana
