#include "par/steal_pool.hpp"

#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/stress.hpp"

namespace gcg::par {

template <class T>
StealPool<T>::StealPool(unsigned workers, std::uint32_t capacity) {
  GCG_EXPECT(workers > 0);
  slots_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    slots_.push_back(std::make_unique<Slot>(capacity));
  }
}

template <class T>
void StealPool<T>::fill(const std::vector<std::vector<T>>& per_worker) {
  GCG_EXPECT(per_worker.size() == slots_.size());
  counted_ = true;
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

template <class T>
void StealPool<T>::push_own(unsigned worker, T item) {
  GCG_DCHECK(!counted_);
  slots_[worker]->deque.push_bottom(item);
}

template <class T>
std::optional<T> StealPool<T>::pop_own(unsigned worker) {
  stress_point(worker);  // schedule-perturbation hook (no-op unless installed)
  auto& slot = *slots_[worker];
  std::optional<T> c = slot.deque.pop_bottom();
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
    if (counted_) remaining_.fetch_sub(1, std::memory_order_release);
  }
  return c;
}

template <class T>
std::optional<T> StealPool<T>::try_victim(unsigned thief, unsigned victim) {
  std::optional<T> c = slots_[victim]->deque.steal();
  if (c) {
    auto& stats = slots_[thief]->stats;
    ++stats.steal_hits;
    ++stats.chunks_stolen;
    // order: release — same contract as pop_own's decrement (LIT-CNT-1).
    if (counted_) remaining_.fetch_sub(1, std::memory_order_release);
  }
  return c;
}

template <class T>
std::optional<T> StealPool<T>::steal(unsigned thief, Xoshiro256ss& rng) {
  stress_point(thief);  // schedule-perturbation hook (no-op unless installed)
  ++slots_[thief]->stats.steal_attempts;
  // A few uniform probes over the other workers, like the simulated
  // queues' bounded retry. The offset 1 + bounded(w - 1) never names the
  // thief itself.
  const unsigned w = workers();
  for (unsigned tries = 1; tries < w; ++tries) {
    const unsigned victim =
        (thief + 1 + narrow<unsigned>(rng.bounded(w - 1))) % w;
    if (auto c = try_victim(thief, victim)) return c;
  }
  return std::nullopt;
}

template <class T>
std::optional<T> StealPool<T>::acquire(unsigned worker, Xoshiro256ss& rng) {
  if (auto c = pop_own(worker)) return c;
  if (drained()) return std::nullopt;
  return steal(worker, rng);
}

template <class T>
StealStats StealPool<T>::stats() const {
  StealStats total;
  for (const auto& slot : slots_) total += slot->stats;
  return total;
}

template <class T>
void StealPool<T>::reset_stats() {
  for (auto& slot : slots_) slot->stats = StealStats{};
}

template class StealPool<Chunk>;
template class StealPool<vid_t>;

}  // namespace gcg::par
