#pragma once

// Narrows this thread's CPU affinity to one CPU, so that code which starts
// one thread per CPU of the affinity mask runs on one. The threaded suites
// compare such a run with a full-mask run bit for bit; a suite that runs
// its own threads pins each to one CPU, so nothing they call nests a
// thread per CPU inside them.

#include <gtest/gtest.h>
#include <sched.h>

namespace dana {

/// Narrows this thread's affinity to CPU k (mod the count) of `mask`.
inline void PinToCpu(const cpu_set_t& mask, int k) {
  const int count = CPU_COUNT(&mask);
  ASSERT_GT(count, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask) && seen++ == k % count) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  EXPECT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
}

/// This thread's affinity mask.
inline cpu_set_t AffinityMask() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  EXPECT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  return mask;
}

/// fn() with this thread's affinity narrowed to the first CPU of its mask;
/// the mask is restored before returning.
template <typename F>
auto OnOneCpu(F&& fn) {
  const cpu_set_t all = AffinityMask();
  PinToCpu(all, 0);
  auto result = fn();
  EXPECT_EQ(sched_setaffinity(0, sizeof(all), &all), 0);
  return result;
}

}  // namespace dana
