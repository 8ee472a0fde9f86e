#include "par/steal_pool.hpp"

#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/stress.hpp"

namespace gcg::par {

StealPool::StealPool(unsigned workers, std::uint32_t capacity) {
  GCG_EXPECT(workers > 0);
  slots_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    slots_.push_back(std::make_unique<Slot>(capacity));
  }
}

void StealPool::push_own(unsigned worker, vid_t item) {
  slots_[worker]->deque.push_bottom(item);
}

std::optional<vid_t> StealPool::pop_own(unsigned worker) {
  stress_point(worker);  // schedule-perturbation hook (no-op unless installed)
  auto& slot = *slots_[worker];
  std::optional<vid_t> v = slot.deque.pop_bottom();
  if (v) ++slot.stats.pops;
  return v;
}

std::optional<vid_t> StealPool::try_victim(unsigned thief, unsigned victim) {
  std::optional<vid_t> v = slots_[victim]->deque.steal();
  if (v) {
    auto& stats = slots_[thief]->stats;
    ++stats.steal_hits;
    ++stats.chunks_stolen;
  }
  return v;
}

std::optional<vid_t> StealPool::steal(unsigned thief, Xoshiro256ss& rng) {
  stress_point(thief);  // schedule-perturbation hook (no-op unless installed)
  ++slots_[thief]->stats.steal_attempts;
  // A few uniform probes over the other workers, like the simulated
  // queues' bounded retry. The offset 1 + bounded(w - 1) never names the
  // thief itself.
  const unsigned w = workers();
  for (unsigned tries = 1; tries < w; ++tries) {
    const unsigned victim =
        (thief + 1 + narrow<unsigned>(rng.bounded(w - 1))) % w;
    if (auto v = try_victim(thief, victim)) return v;
  }
  return std::nullopt;
}

StealStats StealPool::stats() const {
  StealStats total;
  for (const auto& slot : slots_) total += slot->stats;
  return total;
}

}  // namespace gcg::par
