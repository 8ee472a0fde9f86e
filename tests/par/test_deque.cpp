// Chase–Lev deque and StealPool: sequential semantics plus a concurrent
// pop/steal stress test asserting every item is delivered exactly once.
#include "par/deque.hpp"
#include "par/steal_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
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

TEST(StealPoolTest, AcquireDrainsEverythingThroughPopsAndSteals) {
  StealPool pool(4);
  const auto chunks = make_chunks(640, 10);
  pool.fill(deal_blocked(chunks, 4));
  Xoshiro256ss rng(7);
  std::vector<int> seen(chunks.size(), 0);
  // Worker 3 does all the draining: its own block first, then steals.
  while (!pool.drained()) {
    if (auto c = pool.acquire(3, rng)) {
      ++seen[c->begin / 10];
    }
  }
  for (int s : seen) ASSERT_EQ(s, 1);
  EXPECT_GT(pool.stats().steal_hits, 0u);
  EXPECT_EQ(pool.stats().pops + pool.stats().chunks_stolen, chunks.size());
}

TEST(StealPoolTest, RandomStealingDrains) {
  StealPool pool(3);
  pool.fill(deal_round_robin(make_chunks(120, 10), 3));
  Xoshiro256ss rng(11);
  std::uint32_t got = 0;
  while (!pool.drained()) {
    if (pool.acquire(0, rng)) ++got;
  }
  EXPECT_EQ(got, 12u);
}

TEST(StealPoolTest, ThiefReachesEveryOtherWorker) {
  // Every other worker is a possible victim and the thief never probes
  // itself: with one chunk on the victim and one on the thief's own
  // deque, a steal can only ever return the victim's.
  const Chunk own{0, 10}, theirs{10, 20};
  for (unsigned w : {2u, 3u, 4u}) {
    for (unsigned victim = 1; victim < w; ++victim) {
      StealPool pool(w);
      std::vector<std::vector<Chunk>> per_worker(w);
      per_worker[0] = {own};
      per_worker[victim] = {theirs};
      pool.fill(per_worker);
      Xoshiro256ss rng(w * 10 + victim);
      std::optional<Chunk> got;
      for (int tries = 0; tries < 256 && !got; ++tries) {
        got = pool.steal(0, rng);
      }
      ASSERT_TRUE(got.has_value()) << "w=" << w << " victim=" << victim;
      EXPECT_EQ(*got, theirs) << "w=" << w << " victim=" << victim;
      EXPECT_FALSE(pool.drained());  // the thief's own chunk is still there
    }
  }

  // One worker: nobody to steal from, not even its own deque.
  StealPool pool(1);
  pool.fill({{own}});
  Xoshiro256ss rng(1);
  EXPECT_FALSE(pool.steal(0, rng).has_value());
  EXPECT_EQ(pool.stats().steal_attempts, 1u);
  EXPECT_EQ(pool.pop_own(0), own);
}

TEST(StealPoolTest, ConcurrentWorkersDeliverEveryChunkOnce) {
  constexpr unsigned kWorkers = 4;
  StealPool pool(kWorkers);
  const auto chunks = make_chunks(4096, 4);
  pool.fill(deal_blocked(chunks, kWorkers));
  std::vector<std::atomic<int>> seen(chunks.size());

  std::vector<std::thread> team;
  for (unsigned w = 0; w < kWorkers; ++w) {
    team.emplace_back([&, w] {
      Xoshiro256ss rng(100 + w);
      while (!pool.drained()) {
        if (auto c = pool.acquire(w, rng)) {
          seen[c->begin / 4].fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : team) t.join();

  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "chunk " << i;
  }
  EXPECT_EQ(pool.stats().pops + pool.stats().chunks_stolen, chunks.size());
}

TEST(StealPoolTest, StatsAccumulateAcrossFillsUntilReset) {
  StealPool pool(2);
  Xoshiro256ss rng(1);
  pool.fill(deal_blocked(make_chunks(20, 10), 2));
  while (!pool.drained()) pool.acquire(0, rng);
  const auto first = pool.stats();
  pool.fill(deal_blocked(make_chunks(20, 10), 2));
  while (!pool.drained()) pool.acquire(0, rng);
  EXPECT_EQ(pool.stats().pops + pool.stats().chunks_stolen,
            2 * (first.pops + first.chunks_stolen));
  pool.reset_stats();
  EXPECT_EQ(pool.stats().pops, 0u);
  EXPECT_EQ(pool.stats().steal_attempts, 0u);
}

}  // namespace
}  // namespace gcg::par
