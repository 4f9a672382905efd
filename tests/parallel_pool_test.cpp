// Persistent-pool behavior behind parallel_for: coverage, exception
// propagation, pool reuse after a throw, nested calls, concurrent
// submitters, and a worker count that follows the CPU affinity mask. These
// run real threads, so they double as the targets for a -DPRCOST_TSAN=ON
// build.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace prcost {
namespace {

TEST(ParallelPool, EveryIndexExecutesExactlyOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> executed(kCount);
  parallel_for(kCount, [&](std::size_t i) {
    executed[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(executed[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelPool, WorkerCountIsPositive) {
  EXPECT_GE(parallel_worker_count(), 1u);
}

TEST(ParallelPool, WorkerCountFollowsAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(::sched_getaffinity(0, sizeof original, &original), 0);
  if (CPU_COUNT(&original) < 2) {
    GTEST_SKIP() << "process may run on one CPU only";
  }
  const std::size_t unpinned = parallel_worker_count();
  EXPECT_EQ(unpinned, static_cast<std::size_t>(CPU_COUNT(&original)));

  // Pin to the first allowed CPU: the pool (possibly already started with
  // more helpers) must not fan out, yet still cover every index.
  cpu_set_t one;
  CPU_ZERO(&one);
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
  EXPECT_EQ(parallel_worker_count(), 1u);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> executed(kCount);
  std::atomic<bool> all_in_region{true};
  parallel_for(kCount, [&](std::size_t i) {
    executed[i].fetch_add(1, std::memory_order_relaxed);
    if (!in_parallel_region()) all_in_region.store(false);
  });
  ASSERT_EQ(::sched_setaffinity(0, sizeof original, &original), 0);

  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(executed[i].load(), 1) << "index " << i;
  }
  EXPECT_TRUE(all_in_region.load());
  EXPECT_EQ(parallel_worker_count(), unpinned);
}

TEST(ParallelPool, ExceptionPropagatesAndPoolSurvives) {
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        parallel_for(1000,
                     [&](std::size_t i) {
                       if (i == 137) {
                         throw std::runtime_error{"boom"};
                       }
                     }),
        std::runtime_error);
    // The pool must remain usable after a failed batch.
    std::atomic<std::size_t> sum{0};
    parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ParallelPool, FirstExceptionWinsWhenManyThrow) {
  try {
    parallel_for(500, [](std::size_t i) {
      throw std::out_of_range{"idx " + std::to_string(i)};
    });
    FAIL() << "expected an exception";
  } catch (const std::out_of_range&) {
    // Any one of the bodies' exceptions, with its type intact.
  }
}

TEST(ParallelPool, NestedParallelForRunsSerialInline) {
  std::atomic<bool> saw_nested_region{false};
  std::vector<std::vector<std::size_t>> inner_orders(8);
  parallel_for(8, [&](std::size_t outer) {
    EXPECT_TRUE(in_parallel_region());
    // A nested call must not deadlock; it degrades to a serial loop on the
    // calling thread, preserving index order.
    parallel_for(5, [&](std::size_t inner) {
      if (in_parallel_region()) saw_nested_region.store(true);
      inner_orders[outer].push_back(inner);
    });
  });
  EXPECT_TRUE(saw_nested_region.load());
  for (const auto& order : inner_orders) {
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ParallelPool, NotInRegionOutsideParallelFor) {
  EXPECT_FALSE(in_parallel_region());
  parallel_for(4, [](std::size_t) {});
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelPool, ExplicitSingleWorkerPreservesOrder) {
  std::vector<std::size_t> order;
  parallel_for(6, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelPool, ConcurrentSubmittersBothComplete) {
  // Two external threads submit batches at once; the pool serializes
  // batches internally, and both must finish with full coverage.
  constexpr std::size_t kCount = 5000;
  std::atomic<std::size_t> total_a{0};
  std::atomic<std::size_t> total_b{0};
  std::thread a{[&] {
    for (int round = 0; round < 10; ++round) {
      parallel_for(kCount, [&](std::size_t) {
        total_a.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }};
  std::thread b{[&] {
    for (int round = 0; round < 10; ++round) {
      parallel_for(kCount, [&](std::size_t) {
        total_b.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }};
  a.join();
  b.join();
  EXPECT_EQ(total_a.load(), kCount * 10);
  EXPECT_EQ(total_b.load(), kCount * 10);
}

TEST(ParallelPool, LargeWorkerRequestIsClamped) {
  // More workers than indices must still cover everything exactly once.
  std::vector<std::atomic<int>> executed(3);
  parallel_for(3, [&](std::size_t i) { executed[i].fetch_add(1); }, 64);
  for (auto& e : executed) EXPECT_EQ(e.load(), 1);
}

}  // namespace
}  // namespace prcost
