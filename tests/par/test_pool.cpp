#include "par/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/narrow.hpp"

namespace gcg::par {
namespace {

TEST(ThreadPoolTest, SizeMatchesRequest) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(3).size(), 3u);
  EXPECT_GE(ThreadPool(0).size(), 1u);  // hardware concurrency
}

TEST(ThreadPoolTest, RunExecutesBodyOncePerWorker) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(threads);
    pool.run([&](unsigned w) { hits[w].fetch_add(1); });
    for (unsigned w = 0; w < threads; ++w) {
      EXPECT_EQ(hits[w].load(), 1) << "worker " << w << " of " << threads;
    }
  }
}

TEST(ThreadPoolTest, RunIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const std::uint32_t n = 10'000;
    std::vector<std::atomic<int>> seen(n);
    pool.parallel_for(n, 64, [&](std::uint32_t b, std::uint32_t e, unsigned) {
      for (std::uint32_t i = b; i < e; ++i) seen[i].fetch_add(1);
    });
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, 16, [&](std::uint32_t, std::uint32_t, unsigned) {
    ++calls;  // must not run
  });
  EXPECT_EQ(calls, 0);

  std::atomic<std::uint32_t> sum{0};
  pool.parallel_for(3, 1000, [&](std::uint32_t b, std::uint32_t e, unsigned) {
    for (std::uint32_t i = b; i < e; ++i) sum.fetch_add(i + 1);
  });
  EXPECT_EQ(sum.load(), 6u);  // 1+2+3, grain larger than range
}

// Build an inclusive prefix-sum array (size n+1, prefix[0] = 0) from
// per-item weights, the shape parallel_for_edges expects (CSR row
// offsets are exactly this for degree weights).
std::vector<std::uint64_t> prefix_of(const std::vector<std::uint64_t>& w) {
  std::vector<std::uint64_t> prefix(w.size() + 1, 0);
  std::partial_sum(w.begin(), w.end(), prefix.begin() + 1);
  return prefix;
}

TEST(ThreadPoolTest, ParallelForEdgesCoversSkewedWeightsExactlyOnce) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    // One huge item in the middle, zero-weight items at both ends — the
    // shapes naive chunking drops or double-visits.
    std::vector<std::uint64_t> weights(1000, 1);
    weights[0] = 0;
    weights[500] = 100'000;
    weights[998] = 0;
    weights[999] = 0;  // zero-weight tail after the last heavy item
    const auto prefix = prefix_of(weights);
    std::vector<std::atomic<int>> seen(weights.size());
    pool.parallel_for_edges(
        static_cast<std::uint32_t>(weights.size()), prefix.data(), 256,
        [&](std::uint32_t b, std::uint32_t e, unsigned) {
          for (std::uint32_t i = b; i < e; ++i) seen[i].fetch_add(1);
        });
    for (std::size_t i = 0; i < weights.size(); ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "index " << i << " @" << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForEdgesIsolatesHeavyItems) {
  ThreadPool pool(4);
  const std::uint64_t grain = 64;
  std::vector<std::uint64_t> weights(100, 1);
  weights[50] = 10'000;  // far above the grain weight
  const auto prefix = prefix_of(weights);
  std::atomic<std::uint64_t> surplus{~std::uint64_t{0}};
  pool.parallel_for_edges(
      100, prefix.data(), grain,
      [&](std::uint32_t b, std::uint32_t e, unsigned) {
        if (b <= 50 && 50 < e) {
          // Light weight sharing the heavy item's chunk, on either side.
          surplus.store((prefix[50] - prefix[b]) + (prefix[e] - prefix[51]));
        }
      });
  // Edge-balanced splitting must not glue more than ~a grain's worth of
  // light items onto the chunk holding the heavy one.
  EXPECT_LT(surplus.load(), 2 * grain);
}

TEST(ThreadPoolTest, ParallelForEdgesHandlesAllZeroAndEmpty) {
  ThreadPool pool(2);
  std::vector<std::uint64_t> weights(10, 0);  // isolated vertices
  const auto prefix = prefix_of(weights);
  std::vector<std::atomic<int>> seen(10);
  pool.parallel_for_edges(10, prefix.data(), 512,
                          [&](std::uint32_t b, std::uint32_t e, unsigned) {
                            for (std::uint32_t i = b; i < e; ++i) {
                              seen[i].fetch_add(1);
                            }
                          });
  for (int i = 0; i < 10; ++i) ASSERT_EQ(seen[to_unsigned(i)].load(), 1);

  const std::uint64_t empty_prefix[] = {0};
  int calls = 0;
  pool.parallel_for_edges(0, empty_prefix, 512,
                          [&](std::uint32_t, std::uint32_t, unsigned) {
                            ++calls;  // must not run
                          });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace gcg::par
