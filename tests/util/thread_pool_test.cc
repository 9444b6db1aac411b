#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace lockdown::util {
namespace {

TEST(ThreadPool, NumChunksDecomposition) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 10), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(1, 10), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(10, 10), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(11, 10), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(100, 7), 15u);
  EXPECT_EQ(ThreadPool::NumChunks(5, 0), 1u);  // grain 0 => one chunk
}

TEST(ThreadPool, SerialFallbackRunsChunksInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<std::size_t> order;
  pool.ParallelFor(25, 10, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    order.push_back(chunk);
    EXPECT_EQ(begin, chunk * 10);
    EXPECT_EQ(end, std::min<std::size_t>(begin + 10, 25));
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ThreadPool, EveryIndexCoveredExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 4099;  // prime => ragged last chunk
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, 64, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ChunkDecompositionIndependentOfThreadCount) {
  // The determinism contract: per-chunk results merged in chunk order are
  // identical for any pool size.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    const std::size_t chunks = ThreadPool::NumChunks(1000, 37);
    std::vector<std::uint64_t> shard(chunks, 0);
    pool.ParallelFor(1000, 37, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        shard[chunk] = shard[chunk] * 31 + i;  // order-sensitive fold
      }
    });
    std::uint64_t merged = 0;
    for (const std::uint64_t s : shard) merged = merged * 131 + s;
    return merged;
  };
  const std::uint64_t serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(3), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ThreadPool, ReusableAcrossManyParallelFors) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.ParallelFor(100, 9, [&](std::size_t, std::size_t begin, std::size_t end) {
      std::uint64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100, 10,
                       [](std::size_t chunk, std::size_t, std::size_t) {
                         if (chunk == 3) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // And the pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.ParallelFor(10, 1, [&](std::size_t, std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, 16, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ResolveThreadCount, ExplicitRequestWins) {
  EXPECT_EQ(ResolveThreadCount(5), 5);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(100000), kMaxThreads);
}

TEST(ResolveThreadCount, EnvOverride) {
  ASSERT_EQ(setenv("LOCKDOWN_THREADS", "3", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), 3);
  ASSERT_EQ(setenv("LOCKDOWN_THREADS", "0", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), 1);  // 0 => serial fallback
  ASSERT_EQ(setenv("LOCKDOWN_THREADS", "100000", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), kMaxThreads);
  ASSERT_EQ(setenv("LOCKDOWN_THREADS", "garbage", 1), 0);
  EXPECT_GE(ResolveThreadCount(0), 1);  // malformed => hardware default
  ASSERT_EQ(unsetenv("LOCKDOWN_THREADS"), 0);
  EXPECT_GE(ResolveThreadCount(0), 1);
}

}  // namespace
}  // namespace lockdown::util
