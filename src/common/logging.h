#pragma once

#include <sstream>

namespace dana::internal {

/// Accumulates a failed DANA_CHECK's message; on destruction prints it to
/// stderr with the check's location and aborts.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* cond);
  ~CheckFailure();

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  template <typename T>
  CheckFailure& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace dana::internal

/// Fatal invariant check: aborts with "Check failed: <cond> <message>" when
/// `cond` is false. Used for programming errors, never for data-dependent
/// failures (those return Status). The empty then-branch keeps a following
/// `else` from binding to the check.
#define DANA_CHECK(cond) \
  if (cond) {            \
  } else                 \
    ::dana::internal::CheckFailure(__FILE__, __LINE__, #cond)
