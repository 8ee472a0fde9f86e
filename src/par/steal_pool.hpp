// Per-worker Chase–Lev deques plus random-probe victim selection — the
// native-thread analogue of the simulated sched::StealQueues, sharing its
// StealStats vocabulary so sim and par runs report comparable numbers.
// (The simulated queues keep all three victim policies for the paper's
// ablation; here random probing is the only policy, per that ablation.)
// Items are chunks of a round's frontier (kSteal, loaded by fill()) or
// single ready vertices that workers push as they discover them (kJpl).
//
// Thread safety: entirely lock-free — coordination is sync::atomic
// top/bottom indices inside the Chase–Lev deques, so there is no mutex
// here and nothing for clang TSA capabilities to annotate. The ordering
// arguments live next to each memory_order at the call sites
// (par/deque.hpp) per the order-comment lint rule.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/csr.hpp"  // vid_t
#include "par/deque.hpp"
#include "sched/chunk.hpp"
#include "sched/steal_queues.hpp"  // StealStats
#include "util/narrow.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace gcg::par {

template <class T = Chunk>
class StealPool {
 public:
  /// Every deque starts sized for `capacity` items between fills.
  explicit StealPool(unsigned workers, std::uint32_t capacity = 256);

  /// Load one round's distribution (from deal_round_robin/deal_blocked).
  /// Callable only while no worker is popping/stealing. Stats accumulate
  /// across fills; see reset_stats().
  void fill(const std::vector<std::vector<T>>& per_worker);

  /// Owner push onto the bottom of `worker`'s own deque, for work found
  /// while running. Only on a pool that is never fill()ed, and at most
  /// the constructor's `capacity` pushes per deque in total. Pushed items
  /// are not counted by drained(): an item is handed out before the
  /// pushes it leads to happen, so a push-driven caller must detect
  /// termination itself, and pops and steals then touch no shared
  /// counter.
  void push_own(unsigned worker, T item);

  unsigned workers() const { return narrow<unsigned>(slots_.size()); }

  /// Owner pop from the bottom of `worker`'s own deque.
  std::optional<T> pop_own(unsigned worker);

  /// One steal attempt: workers()-1 uniform random probes over the other
  /// workers. nullopt = every probe found an empty deque or lost its
  /// race (always, on a one-worker pool); retry while !drained().
  /// Victim order never affects what kSteal computes (flags are
  /// per-vertex, commits are schedule-independent) or what kJpl computes
  /// (first-fit in priority order), only steal latency.
  std::optional<T> steal(unsigned thief, Xoshiro256ss& rng);

  /// pop_own, falling back to one steal attempt.
  std::optional<T> acquire(unsigned worker, Xoshiro256ss& rng);

  /// True once every chunk of the current fill has been handed out
  /// (handed out, not necessarily finished — pair with a pool barrier).
  /// Meaningless for push_own work.
  bool drained() const {
    // order: acquire pairs with the release decrements in pop/steal so a
    // worker that sees 0 also sees every handed-out chunk's bookkeeping
    // (the release sequence headed by fill()'s store runs unbroken through
    // the RMW decrements — model-checked as LIT-CNT-1).
    return remaining_.load(std::memory_order_acquire) == 0;
  }

  const StealStats& worker_stats(unsigned w) const { return slots_[w]->stats; }
  StealStats stats() const;  ///< aggregate over workers
  void reset_stats();

 private:
  // Heap-allocate per-worker state so deque cursors and stats counters of
  // different workers never share a cache line.
  struct alignas(64) Slot {
    explicit Slot(std::uint32_t capacity) : deque(capacity) {}
    WorkStealingDeque<T> deque;
    StealStats stats;
  };
  std::optional<T> try_victim(unsigned thief, unsigned victim);

  std::vector<std::unique_ptr<Slot>> slots_;
  alignas(64) sync::atomic<std::int64_t> remaining_{0};
  bool counted_ = false;  ///< fill()ed: pops and steals count down remaining_
};

extern template class StealPool<Chunk>;
extern template class StealPool<vid_t>;

}  // namespace gcg::par
