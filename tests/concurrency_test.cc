// Concurrency suite (ctest label: concurrency).
//
// Stress-tests the synchronisation primitives shared state relies on: the
// CompileCache / FillOnceMap fill-once/wait contract (K threads requesting
// one cold key -> exactly one build; failed builds reach every waiter and
// are not cached) and the atomic MetricRegistry (no lost publishes). The
// CI tsan and asan-ubsan jobs run this label under their sanitizers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/fill_once.h"
#include "compiler/compiler.h"
#include "obs/metrics.h"
#include "sched/compile_cache.h"

namespace dana::sched {
namespace {

// ---------------------------------------------------------------------------
// Compile-cache stampede: fill-once/wait under real threads
// ---------------------------------------------------------------------------

TEST(CompileCacheStampedeTest, ColdKeyCompilesExactlyOnce) {
  constexpr int kThreads = 8;
  CompileCache cache;
  std::atomic<int> builds{0};
  std::atomic<bool> build_started{false};
  auto builder = [&]() -> dana::Result<compiler::CompiledUdf> {
    builds.fetch_add(1, std::memory_order_relaxed);
    build_started.store(true, std::memory_order_release);
    // Hold the fill open long enough that every waiter piles onto the
    // in-flight entry instead of hitting a ready one.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    compiler::CompiledUdf udf;
    udf.udf_name = "stampede";
    return udf;
  };

  std::vector<const compiler::CompiledUdf*> got(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    auto r = cache.GetOrCompile("design", builder);
    if (r.ok()) got[0] = *r;
  });
  // Admit the waiters only once the single build is provably in flight.
  while (!build_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (int i = 1; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto r = cache.GetOrCompile("design", builder);
      if (r.ok()) got[i] = *r;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1) << "stampede must collapse to one compile";
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(got[0], nullptr);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], got[0]) << "all requesters share the one design";
  }
  EXPECT_EQ(got[0]->udf_name, "stampede");
}

TEST(CompileCacheStampedeTest, FailedBuildReachesWaitersAndIsNotCached) {
  constexpr int kThreads = 4;
  CompileCache cache;
  std::atomic<int> builds{0};
  std::atomic<bool> build_started{false};
  auto failing = [&]() -> dana::Result<compiler::CompiledUdf> {
    builds.fetch_add(1, std::memory_order_relaxed);
    build_started.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return dana::Status::Internal("synthetic compile failure");
  };

  std::vector<Status> statuses(kThreads, Status::OK());
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    statuses[0] = cache.GetOrCompile("bad", failing).status();
  });
  while (!build_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (int i = 1; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      statuses[i] = cache.GetOrCompile("bad", failing).status();
    });
  }
  for (std::thread& t : threads) t.join();

  // One build ran; it and every waiter got the error, nobody a stale value.
  EXPECT_EQ(builds.load(), 1);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(statuses[i].IsInternal()) << statuses[i].ToString();
  }
  // The failure counted the one miss (matching single-threaded
  // accounting), no hits, and was not cached: the next requester retries
  // from scratch and succeeds.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find("bad"), nullptr);

  auto ok_builder = [&]() -> dana::Result<compiler::CompiledUdf> {
    compiler::CompiledUdf udf;
    udf.udf_name = "recovered";
    return udf;
  };
  auto retried = cache.GetOrCompile("bad", ok_builder);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ((*retried)->udf_name, "recovered");
  EXPECT_EQ(cache.misses(), 2u);
  auto hit = cache.GetOrCompile("bad", ok_builder);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, *retried);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(FillOnceMapTest, SingleThreadedSemantics) {
  dana::FillOnceMap<std::string, int> map;
  int fills = 0;
  bool filled_here = false;
  auto fill = [&]() -> dana::Result<int> {
    ++fills;
    return 42;
  };
  auto a = map.GetOrFill("k", fill, &filled_here);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(filled_here);
  EXPECT_EQ(**a, 42);
  auto b = map.GetOrFill("k", fill, &filled_here);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(filled_here);
  EXPECT_EQ(*a, *b) << "ready hits return the same stable pointer";
  EXPECT_EQ(fills, 1);
  EXPECT_EQ(map.size(), 1u);

  // A failed fill is not cached; the next request retries the filler.
  auto fail = [&]() -> dana::Result<int> {
    ++fills;
    return dana::Status::IOError("transient");
  };
  EXPECT_TRUE(map.GetOrFill("bad", fail).status().IsIOError());
  EXPECT_EQ(map.Find("bad"), nullptr);
  auto recovered = map.GetOrFill("bad", fill);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(**recovered, 42);
  EXPECT_EQ(fills, 3);
}

// ---------------------------------------------------------------------------
// MetricRegistry: exact totals under concurrent publishing
// ---------------------------------------------------------------------------

TEST(MetricRegistryStressTest, ConcurrentPublishesCountExactly) {
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  obs::MetricRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Resolve-once hot-path idiom for the shared counter; the helpers
      // exercise concurrent name->metric creation too.
      obs::Counter* shared = registry.counter("stress.shared");
      const std::string own = "stress.thread." + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        shared->Increment();
        obs::Count(&registry, own);
        obs::Observe(&registry, "stress.latency", i % 7);
        obs::SetGauge(&registry, "stress.gauge", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Integral counts are exactly representable: no increment may be lost.
  EXPECT_DOUBLE_EQ(registry.counter("stress.shared")->value(),
                   static_cast<double>(kThreads) * kOps);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        registry.counter("stress.thread." + std::to_string(t))->value(),
        static_cast<double>(kOps));
  }
  obs::Histogram* h = registry.histogram("stress.latency");
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kOps);
  // Every thread records the same multiset; order-independent readouts are
  // exact no matter how the interleaving went.
  double per_thread_sum = 0;
  for (int i = 0; i < kOps; ++i) per_thread_sum += i % 7;
  EXPECT_DOUBLE_EQ(h->Sum(), per_thread_sum * kThreads);
  EXPECT_DOUBLE_EQ(h->Min(), 0.0);
  EXPECT_DOUBLE_EQ(h->Max(), 6.0);
  // The gauge holds one of the written values (last write wins).
  const double g = registry.gauge("stress.gauge")->value();
  EXPECT_GE(g, 0.0);
  EXPECT_LE(g, kOps - 1);
}

}  // namespace
}  // namespace dana::sched
