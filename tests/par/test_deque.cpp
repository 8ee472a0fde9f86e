// Chase–Lev deque and StealPool: sequential semantics, victim probing,
// and concurrent pop/steal stress tests asserting every item is delivered
// exactly once.
#include "par/deque.hpp"
#include "par/steal_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "util/narrow.hpp"

namespace gcg::par {
namespace {

TEST(WorkStealingDequeTest, OwnerLifoThiefFifo) {
  WorkStealingDeque<int> dq(8);
  dq.push_bottom(1);
  dq.push_bottom(2);
  dq.push_bottom(3);
  EXPECT_EQ(dq.size_estimate(), 3);
  auto stolen = dq.steal();  // oldest item
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(*stolen, 1);
  auto popped = dq.pop_bottom();  // newest item
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 3);
  EXPECT_EQ(*dq.pop_bottom(), 2);
  EXPECT_FALSE(dq.pop_bottom().has_value());
  EXPECT_FALSE(dq.steal().has_value());
}

TEST(WorkStealingDequeTest, ReserveRoundsUpAndResetEmpties) {
  WorkStealingDeque<int> dq(5);
  EXPECT_EQ(dq.capacity(), 8u);
  dq.push_bottom(42);
  dq.reset();
  EXPECT_FALSE(dq.pop_bottom().has_value());
  EXPECT_EQ(dq.size_estimate(), 0);
}

TEST(WorkStealingDequeTest, ConcurrentPopAndStealDeliverEachItemOnce) {
  // The determinism-free heart of the backend: one owner popping, several
  // thieves stealing, every item surfacing exactly once.
  constexpr int kItems = 20'000;
  constexpr int kThieves = 3;
  WorkStealingDeque<int> dq(kItems);
  for (int i = 0; i < kItems; ++i) dq.push_bottom(i);

  std::vector<std::atomic<int>> seen(kItems);
  std::atomic<int> delivered{0};

  auto thief = [&] {
    while (delivered.load(std::memory_order_acquire) < kItems) {
      if (auto v = dq.steal()) {
        seen[to_unsigned(*v)].fetch_add(1);
        delivered.fetch_add(1, std::memory_order_acq_rel);
      } else {
        std::this_thread::yield();
      }
    }
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) thieves.emplace_back(thief);

  // Owner pops from the bottom until its end meets the thieves'.
  while (delivered.load(std::memory_order_acquire) < kItems) {
    if (auto v = dq.pop_bottom()) {
      seen[to_unsigned(*v)].fetch_add(1);
      delivered.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  for (auto& t : thieves) t.join();

  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[to_unsigned(i)].load(), 1) << "item " << i;
  }
}

/// A pool of `workers` deques holding items [0, items), dealt in
/// contiguous blocks.
StealPool blocked_pool(unsigned workers, std::uint32_t items) {
  StealPool pool(workers, items);
  const std::uint32_t block = (items + workers - 1) / workers;
  for (vid_t v = 0; v < items; ++v) pool.push_own(v / block, v);
  return pool;
}

TEST(StealPoolTest, RandomStealingDrains) {
  // Worker 3 does all the draining: its own block first, then steals.
  constexpr std::uint32_t kItems = 640;
  StealPool pool = blocked_pool(4, kItems);
  Xoshiro256ss rng(7);
  std::vector<int> seen(kItems, 0);
  std::uint32_t got = 0;
  for (int misses = 0; got < kItems && misses < 10'000;) {
    std::optional<vid_t> v = pool.pop_own(3);
    if (!v) v = pool.steal(3, rng);
    if (!v) {
      ++misses;
      continue;
    }
    ++seen[*v];
    ++got;
  }
  EXPECT_EQ(got, kItems);
  for (int s : seen) ASSERT_EQ(s, 1);
  EXPECT_GT(pool.stats().steal_hits, 0u);
  EXPECT_EQ(pool.stats().pops + pool.stats().chunks_stolen, kItems);
  EXPECT_EQ(pool.worker_stats(3).pops, kItems / 4);
}

TEST(StealPoolTest, ThiefReachesEveryOtherWorker) {
  // Every other worker is a possible victim and the thief never probes
  // itself: with one item on the victim and one on the thief's own
  // deque, a steal can only ever return the victim's.
  const vid_t own = 10, theirs = 20;
  for (unsigned w : {2u, 3u, 4u}) {
    for (unsigned victim = 1; victim < w; ++victim) {
      StealPool pool(w);
      pool.push_own(0, own);
      pool.push_own(victim, theirs);
      Xoshiro256ss rng(w * 10 + victim);
      std::optional<vid_t> got;
      for (int tries = 0; tries < 256 && !got; ++tries) {
        got = pool.steal(0, rng);
      }
      ASSERT_TRUE(got.has_value()) << "w=" << w << " victim=" << victim;
      EXPECT_EQ(*got, theirs) << "w=" << w << " victim=" << victim;
      // The thief's own item is still there.
      EXPECT_EQ(pool.pop_own(0), own) << "w=" << w << " victim=" << victim;
    }
  }

  // One worker: nobody to steal from, not even its own deque.
  StealPool pool(1);
  pool.push_own(0, own);
  Xoshiro256ss rng(1);
  EXPECT_FALSE(pool.steal(0, rng).has_value());
  EXPECT_EQ(pool.stats().steal_attempts, 1u);
  EXPECT_EQ(pool.pop_own(0), own);
}

TEST(StealPoolTest, ConcurrentWorkersDeliverEveryChunkOnce) {
  // Every pushed item (a "chunk" of one vertex) surfaces exactly once
  // while all workers pop their own deques and steal from each other.
  constexpr unsigned kWorkers = 4;
  constexpr std::uint32_t kItems = 1024;
  StealPool pool = blocked_pool(kWorkers, kItems);
  std::vector<std::atomic<int>> seen(kItems);
  std::atomic<std::uint32_t> delivered{0};

  std::vector<std::thread> team;
  for (unsigned w = 0; w < kWorkers; ++w) {
    team.emplace_back([&, w] {
      Xoshiro256ss rng(100 + w);
      while (delivered.load(std::memory_order_acquire) < kItems) {
        std::optional<vid_t> v = pool.pop_own(w);
        if (!v) v = pool.steal(w, rng);
        if (v) {
          seen[*v].fetch_add(1);
          delivered.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : team) t.join();

  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "item " << i;
  }
  EXPECT_EQ(pool.stats().pops + pool.stats().chunks_stolen, kItems);
}

}  // namespace
}  // namespace gcg::par
