#include "par/pool.hpp"

#include <algorithm>

#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/stress.hpp"

namespace gcg::par {

unsigned ThreadPool::default_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned total = threads == 0 ? default_threads() : threads;
  helpers_.reserve(total - 1);
  for (unsigned w = 1; w < total; ++w) {
    helpers_.emplace_back([this, w] { helper_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::LockGuard lock(mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void ThreadPool::helper_loop(unsigned worker) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      sync::LockGuard lock(mu_);
      while (!shutdown_ && generation_ == seen) start_cv_.wait(mu_);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    // The job runs outside the lock; run() keeps `body` alive until every
    // helper has decremented outstanding_, so the pointer stays valid.
    (*job)(worker);
    {
      sync::LockGuard lock(mu_);
      if (--outstanding_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run(const std::function<void(unsigned)>& body) {
  if (helpers_.empty()) {
    body(0);
    return;
  }
  {
    sync::LockGuard lock(mu_);
    GCG_ASSERT(outstanding_ == 0);  // reentrant run() would deadlock
    job_ = &body;
    outstanding_ = narrow<unsigned>(helpers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  body(0);
  sync::LockGuard lock(mu_);
  while (outstanding_ != 0) done_cv_.wait(mu_);
  job_ = nullptr;
}

void ThreadPool::parallel_for(
    std::uint32_t n, std::uint32_t grain,
    const std::function<void(std::uint32_t, std::uint32_t, unsigned)>& body) {
  if (n == 0) return;
  grain = std::max(grain, 1u);
  sync::atomic<std::uint32_t> cursor{0};
  run([&](unsigned worker) {
    while (true) {
      // order: relaxed — the cursor only partitions the index space;
      // everything the chunks write is ordered by the pool barrier.
      const std::uint32_t begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      stress_point(worker);  // schedule-perturbation hook (no-op unless installed)
      body(begin, std::min(begin + grain, n), worker);
    }
  });
}

void ThreadPool::parallel_for_edges(
    std::uint32_t n, const std::uint64_t* prefix, std::uint64_t grain_weight,
    const std::function<void(std::uint32_t, std::uint32_t, unsigned)>& body) {
  if (n == 0) return;
  grain_weight = std::max<std::uint64_t>(grain_weight, 1);
  const std::uint64_t total = prefix[n];
  // An all-zero-weight range still gets one chunk so every index is seen.
  const std::uint64_t num_chunks =
      std::max<std::uint64_t>(1, (total + grain_weight - 1) / grain_weight);
  // Chunk k spans [boundary(k), boundary(k+1)): the first indices whose
  // cumulative weight reaches k*grain and (k+1)*grain. The last chunk is
  // pinned to n so a weightless tail (isolated vertices) is not dropped.
  const auto boundary = [&](std::uint64_t k) -> std::uint32_t {
    if (k >= num_chunks) return n;
    const std::uint64_t* it =
        std::lower_bound(prefix, prefix + n + 1, k * grain_weight);
    return narrow<std::uint32_t>(
        std::min<std::size_t>(to_unsigned(it - prefix), n));
  };
  sync::atomic<std::uint64_t> cursor{0};
  run([&](unsigned worker) {
    while (true) {
      // order: relaxed — chunk indices only; the pool barrier orders
      // the chunk bodies' effects.
      const std::uint64_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_chunks) break;
      stress_point(worker);  // schedule-perturbation hook (no-op unless installed)
      const std::uint32_t begin = boundary(k);
      const std::uint32_t end = boundary(k + 1);
      if (begin < end) body(begin, end, worker);
    }
  });
}

}  // namespace gcg::par
