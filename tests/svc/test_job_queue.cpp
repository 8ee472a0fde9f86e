#include "svc/job_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace gcg::svc {
namespace {

JobPtr make_job(std::uint64_t id, const std::string& key) {
  JobSpec spec;
  spec.graph = key;
  return std::make_shared<JobRecord>(id, spec, key,
                                     std::chrono::steady_clock::now());
}

TEST(JobQueue, RejectsWhenFull) {
  JobQueue q(2);
  EXPECT_TRUE(q.try_push(make_job(1, "a")));
  EXPECT_TRUE(q.try_push(make_job(2, "a")));
  EXPECT_FALSE(q.try_push(make_job(3, "a"))) << "bounded queue must reject";
  EXPECT_EQ(q.size(), 2u);

  // Draining frees capacity again.
  EXPECT_EQ(q.pop_batch(8).size(), 2u);
  EXPECT_TRUE(q.try_push(make_job(4, "a")));
}

TEST(JobQueue, PopBatchGroupsSameGraph) {
  JobQueue q(16);
  q.try_push(make_job(1, "g1"));
  q.try_push(make_job(2, "g2"));
  q.try_push(make_job(3, "g1"));
  q.try_push(make_job(4, "g1"));
  q.try_push(make_job(5, "g2"));

  const auto batch = q.pop_batch(8);
  ASSERT_EQ(batch.size(), 3u) << "all g1 jobs ride the first batch";
  EXPECT_EQ(batch[0]->id, 1u);
  EXPECT_EQ(batch[1]->id, 3u);
  EXPECT_EQ(batch[2]->id, 4u);

  const auto rest = q.pop_batch(8);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0]->id, 2u);
  EXPECT_EQ(rest[1]->id, 5u);
}

TEST(JobQueue, BatchLimitCaps) {
  JobQueue q(16);
  for (std::uint64_t i = 1; i <= 6; ++i) q.try_push(make_job(i, "g"));
  EXPECT_EQ(q.pop_batch(4).size(), 4u);
  EXPECT_EQ(q.pop_batch(4).size(), 2u);
}

TEST(JobQueue, RemoveById) {
  JobQueue q(8);
  q.try_push(make_job(1, "a"));
  q.try_push(make_job(2, "a"));
  const JobPtr removed = q.remove(1);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->id, 1u);
  EXPECT_EQ(q.remove(1), nullptr);
  EXPECT_EQ(q.size(), 1u);
}

TEST(JobQueue, CloseUnblocksConsumers) {
  JobQueue q(8);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    const auto batch = q.pop_batch(8);
    EXPECT_TRUE(batch.empty());
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(q.try_push(make_job(9, "a"))) << "closed queue rejects";
}

TEST(JobQueue, CloseDrainsBacklogFirst) {
  JobQueue q(8);
  q.try_push(make_job(1, "a"));
  q.close();
  EXPECT_EQ(q.pop_batch(8).size(), 1u) << "queued job still served after close";
  EXPECT_TRUE(q.pop_batch(8).empty());
}

TEST(JobQueue, ManyProducersManyConsumers) {
  constexpr int kProducers = 4, kConsumers = 3, kPerProducer = 200;
  JobQueue q(64);
  std::atomic<int> accepted{0}, popped{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        const auto batch = q.pop_batch(4);
        if (batch.empty()) return;
        popped.fetch_add(static_cast<int>(batch.size()));
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto id =
            static_cast<std::uint64_t>(p * kPerProducer + i + 1);
        // Back off on backpressure instead of dropping, so the count
        // below is deterministic.
        while (!q.try_push(make_job(id, p % 2 ? "even" : "odd"))) {
          std::this_thread::yield();
        }
        accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace gcg::svc
