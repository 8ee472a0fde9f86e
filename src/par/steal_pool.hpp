// Per-worker Chase–Lev deques plus random-probe victim selection — the
// native-thread analogue of the simulated sched::StealQueues, sharing its
// StealStats vocabulary so sim and par runs report comparable numbers.
// (The simulated queues keep all three victim policies for the paper's
// ablation; here random probing is the only policy, per that ablation.)
// Items are single ready vertices that workers push as they discover
// them (kJpl).
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
#include "sched/steal_queues.hpp"  // StealStats
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg::par {

class StealPool {
 public:
  /// Every deque is sized for `capacity` items.
  explicit StealPool(unsigned workers, std::uint32_t capacity = 256);

  /// Owner push onto the bottom of `worker`'s own deque, for work found
  /// while running; at most the constructor's `capacity` pushes per deque
  /// in total. An item is handed out before the pushes it leads to
  /// happen, so the caller detects termination itself.
  void push_own(unsigned worker, vid_t item);

  unsigned workers() const { return narrow<unsigned>(slots_.size()); }

  /// Owner pop from the bottom of `worker`'s own deque.
  std::optional<vid_t> pop_own(unsigned worker);

  /// One steal attempt: workers()-1 uniform random probes over the other
  /// workers. nullopt = every probe found an empty deque or lost its
  /// race (always, on a one-worker pool). Victim order never affects
  /// what kJpl computes (first-fit in priority order), only steal
  /// latency.
  std::optional<vid_t> steal(unsigned thief, Xoshiro256ss& rng);

  const StealStats& worker_stats(unsigned w) const { return slots_[w]->stats; }
  StealStats stats() const;  ///< aggregate over workers

 private:
  // Heap-allocate per-worker state so deque cursors and stats counters of
  // different workers never share a cache line.
  struct alignas(64) Slot {
    explicit Slot(std::uint32_t capacity) : deque(capacity) {}
    WorkStealingDeque<vid_t> deque;
    StealStats stats;
  };
  std::optional<vid_t> try_victim(unsigned thief, unsigned victim);

  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace gcg::par
