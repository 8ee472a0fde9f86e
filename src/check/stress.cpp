#include "check/stress.hpp"

#include <algorithm>
#include <thread>

#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg::check {

namespace {

// Map a probability to a threshold on a uniform 64-bit hash value.
// p >= 1 saturates explicitly: the double->uint64 cast of 2^64 would be
// undefined behaviour, and "always fire" must mean always.
std::uint64_t probability_cut(double p) {
  p = std::clamp(p, 0.0, 1.0);
  if (p >= 1.0) return ~std::uint64_t{0};
  return narrow<std::uint64_t>(p * 0x1.0p64);
}

// draw < cut, with the saturated cut meaning "every draw hits".
bool cut_hit(std::uint64_t draw, std::uint64_t cut) {
  return cut == ~std::uint64_t{0} || draw < cut;
}

}  // namespace

StressSchedule::StressSchedule(StressOptions opts)
    : opts_(opts),
      yield_cut_(probability_cut(opts.yield_probability)),
      spin_cut_(probability_cut(
          std::min(1.0, opts.yield_probability + opts.spin_probability))),
      lanes_(std::make_unique<Lane[]>(kMaxLanes)) {
  GCG_EXPECT(!stress_hook_installed());  // one harness at a time
  hook_.fn = &StressSchedule::hook_fn;
  hook_.state = this;
  install_stress_hook(&hook_);
}

StressSchedule::~StressSchedule() { install_stress_hook(nullptr); }

void StressSchedule::hook_fn(void* state, unsigned worker) {
  static_cast<StressSchedule*>(state)->perturb(worker);
}

void StressSchedule::perturb(unsigned worker) {
  Lane& lane = lanes_[worker % kMaxLanes];
  // order: relaxed — the counter is a per-lane decision stream, only this
  // worker's thread increments it and totals are read when quiescent.
  const std::uint64_t k = lane.boundaries.fetch_add(1, std::memory_order_relaxed);
  const CounterHash hash(opts_.seed ^ (std::uint64_t{worker} << 32));
  const std::uint64_t draw = hash(k);
  if (cut_hit(draw, yield_cut_)) {
    // order: relaxed — statistics counter, read when quiescent.
    lane.perturbed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  } else if (cut_hit(draw, spin_cut_)) {
    // order: relaxed — statistics counter, read when quiescent.
    lane.perturbed.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t spins =
        1 + narrow<std::uint32_t>(hash(~k) % kMaxSpin);
    for (std::uint32_t i = 0; i < spins; ++i) {
      // order: seq_cst signal fence — compiler-only barrier that keeps the
      // empty delay loop alive; no inter-thread ordering is implied.
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
  }
}

std::uint64_t StressSchedule::boundaries_seen() const {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kMaxLanes; ++i) {
    // order: relaxed — quiescent aggregate of per-lane counters.
    total += lanes_[i].boundaries.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t StressSchedule::perturbations() const {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kMaxLanes; ++i) {
    // order: relaxed — quiescent aggregate of per-lane counters.
    total += lanes_[i].perturbed.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace gcg::check
