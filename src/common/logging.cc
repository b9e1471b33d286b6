#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace dana::internal {

CheckFailure::CheckFailure(const char* file, int line, const char* cond) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << base << ":" << line << "] Check failed: " << cond << " ";
}

CheckFailure::~CheckFailure() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace dana::internal
