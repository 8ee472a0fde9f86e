#include "par/steal_pool.hpp"

#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/stress.hpp"

namespace gcg::par {

StealPool::StealPool(unsigned workers) {
  GCG_EXPECT(workers > 0);
  slots_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    slots_.push_back(std::make_unique<Slot>());
  }
  set_worker_nodes({});
}

void StealPool::set_worker_nodes(const std::vector<unsigned>& nodes) {
  const unsigned n = workers();
  const bool known = nodes.size() == n;  // otherwise: one node
  local_victims_.assign(n, {});
  remote_victims_.assign(n, {});
  for (unsigned thief = 0; thief < n; ++thief) {
    for (unsigned step = 1; step < n; ++step) {
      const unsigned victim = (thief + step) % n;
      const bool local = !known || nodes[victim] == nodes[thief];
      (local ? local_victims_ : remote_victims_)[thief].push_back(victim);
    }
  }
}

void StealPool::fill(const std::vector<std::vector<Chunk>>& per_worker) {
  GCG_EXPECT(per_worker.size() == slots_.size());
  std::int64_t total = 0;
  for (unsigned w = 0; w < workers(); ++w) {
    auto& dq = slots_[w]->deque;
    const auto& chunks = per_worker[w];
    if (dq.capacity() < chunks.size()) {
      dq.reserve(narrow<std::uint32_t>(chunks.size()));
    } else {
      dq.reset();
    }
    // Push in reverse so the owner's LIFO pops walk the frontier in
    // order while thieves take from the far end — the same head/tail
    // discipline as the simulated queues.
    for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
      dq.push_bottom(*it);
    }
    total += to_signed(chunks.size());
  }
  // order: release publishes the freshly filled deques to workers whose
  // drained() acquire load observes the new count.
  remaining_.store(total, std::memory_order_release);
}

std::optional<Chunk> StealPool::pop_own(unsigned worker) {
  stress_point(worker);  // schedule-perturbation hook (no-op unless installed)
  auto& slot = *slots_[worker];
  std::optional<Chunk> c = slot.deque.pop_bottom();
  if (c) {
    ++slot.stats.pops;
    // order: release — drained()'s acquire load pairs with the decrement
    // that hits 0 and, through the release sequence the RMWs continue,
    // with every earlier decrement, so the 0-observer sees all handed-out
    // chunks' bookkeeping. The old acq_rel's acquire half synchronized
    // with nothing (no later writes here are read via remaining_) — the
    // model checker flagged it as vacuous; LIT-CNT-1 in
    // tests/mc/test_mc_litmus.cpp shows release suffices and relaxed
    // does not.
    remaining_.fetch_sub(1, std::memory_order_release);
  }
  return c;
}

std::optional<Chunk> StealPool::try_victim(unsigned thief, unsigned victim) {
  std::optional<Chunk> c = slots_[victim]->deque.steal();
  if (c) {
    auto& stats = slots_[thief]->stats;
    ++stats.steal_hits;
    ++stats.chunks_stolen;
    // order: release — same contract as pop_own's decrement (LIT-CNT-1).
    remaining_.fetch_sub(1, std::memory_order_release);
  }
  return c;
}

std::optional<Chunk> StealPool::steal_from(
    unsigned thief, Xoshiro256ss& rng, const std::vector<unsigned>& victims) {
  // A few uniform probes, like the simulated queues' bounded retry.
  const auto n = narrow<unsigned>(victims.size());
  for (unsigned tries = 0; tries < n; ++tries) {
    const unsigned victim = victims[narrow<unsigned>(rng.bounded(n))];
    if (auto c = try_victim(thief, victim)) return c;
  }
  return std::nullopt;
}

std::optional<Chunk> StealPool::steal(unsigned thief, Xoshiro256ss& rng) {
  stress_point(thief);  // schedule-perturbation hook (no-op unless installed)
  ++slots_[thief]->stats.steal_attempts;
  // Node-local pass first; remote victims only when it comes up empty.
  if (auto c = steal_from(thief, rng, local_victims_[thief])) return c;
  return steal_from(thief, rng, remote_victims_[thief]);
}

std::optional<Chunk> StealPool::acquire(unsigned worker, Xoshiro256ss& rng) {
  if (auto c = pop_own(worker)) return c;
  if (drained()) return std::nullopt;
  return steal(worker, rng);
}

StealStats StealPool::stats() const {
  StealStats total;
  for (const auto& slot : slots_) total += slot->stats;
  return total;
}

void StealPool::reset_stats() {
  for (auto& slot : slots_) slot->stats = StealStats{};
}

}  // namespace gcg::par
