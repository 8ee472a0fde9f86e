// Reusable native thread pool for the multicore backend: a fixed team of
// OS threads executing fork-join parallel regions. The calling thread is
// always worker 0, so a 1-thread pool runs everything inline — that is
// what makes the 1-thread par run bit-identical to a sequential execution.
//
// The pool is topology-oblivious: helpers are plain std::threads with no
// affinity, and workers differ only in their index. The paper's two
// load-balancing fixes — edge-balanced splits (parallel_for_edges) and
// work stealing (StealPool) — both assume one shared memory.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/narrow.hpp"
#include "util/sync.hpp"

namespace gcg::par {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency(). The pool spawns
  /// threads-1 helpers; the caller participates as worker 0.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return narrow<unsigned>(helpers_.size()) + 1; }

  /// Runs body(worker) exactly once on every worker and returns when all
  /// of them finished (a full barrier). Not reentrant: body must not call
  /// run()/parallel_for() on the same pool.
  void run(const std::function<void(unsigned)>& body);

  /// Chunked parallel-for over [0, n): workers grab `grain`-sized ranges
  /// from a shared cursor until the range is exhausted (self-balancing for
  /// mildly irregular work; use StealPool for heavy-tailed work).
  /// body(begin, end, worker).
  void parallel_for(std::uint32_t n, std::uint32_t grain,
                    const std::function<void(std::uint32_t, std::uint32_t,
                                             unsigned)>& body);

  /// Weighted parallel-for over [0, n): `prefix` is a monotone cumulative
  /// weight array of size n+1 with prefix[0] == 0 — for a graph frontier,
  /// the running sum of vertex degrees (the CSR row-offset array itself
  /// when iterating every vertex). The index space is cut at
  /// binary-searched split points into chunks of ~grain_weight cumulative
  /// weight, so a run of light items is batched while an item heavier
  /// than grain_weight gets a chunk of its own. With degree weights this
  /// is the edge-balanced partitioning of the paper's load-imbalance fix:
  /// every chunk carries a comparable amount of *edge* work no matter how
  /// skewed the degree distribution. body(begin, end, worker).
  void parallel_for_edges(std::uint32_t n, const std::uint64_t* prefix,
                          std::uint64_t grain_weight,
                          const std::function<void(std::uint32_t, std::uint32_t,
                                                   unsigned)>& body);

  /// hardware_concurrency(), never 0.
  static unsigned default_threads();

 private:
  void helper_loop(unsigned worker);

  std::vector<std::thread> helpers_;
  sync::Mutex mu_;
  sync::CondVar start_cv_;
  sync::CondVar done_cv_;
  const std::function<void(unsigned)>* job_ GCG_GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ GCG_GUARDED_BY(mu_) = 0;
  unsigned outstanding_ GCG_GUARDED_BY(mu_) = 0;
  bool shutdown_ GCG_GUARDED_BY(mu_) = false;
};

}  // namespace gcg::par
