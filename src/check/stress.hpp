// Seeded schedule-perturbation harness. While an instance is alive, the
// native pools (par::ThreadPool, par::StealPool) call back into it at
// every chunk boundary and it injects randomized yields and short spin
// delays. The decision stream is a stateless counter hash of
// (seed, worker, per-worker counter), so a given (seed, thread-count)
// pair perturbs the same chunk boundaries on every run — TSan jobs and
// parity tests explore far more interleavings than an unperturbed run,
// and a failure reproduces from its seed.
//
// Scope: one StressSchedule at a time, installed while the pools are
// quiescent (construct before the parallel region, destroy after). The
// constructor aborts if a hook is already installed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/stress.hpp"

namespace gcg::check {

/// Spin length of a perturbation is uniform in [1, kMaxSpin] pause
/// iterations.
inline constexpr std::uint32_t kMaxSpin = 512;

struct StressOptions {
  std::uint64_t seed = 1;
  /// Probability that a chunk boundary yields the thread.
  double yield_probability = 0.2;
  /// Probability that a chunk boundary spins (busy-waits) instead.
  double spin_probability = 0.2;
};

class StressSchedule {
 public:
  explicit StressSchedule(StressOptions opts);
  explicit StressSchedule(std::uint64_t seed = 1)
      : StressSchedule(StressOptions{.seed = seed}) {}
  ~StressSchedule();
  StressSchedule(const StressSchedule&) = delete;
  StressSchedule& operator=(const StressSchedule&) = delete;

  /// Chunk boundaries observed so far (all workers). Read when quiescent.
  std::uint64_t boundaries_seen() const;
  /// Perturbations (yields + spins) actually injected so far.
  std::uint64_t perturbations() const;

  const StressOptions& options() const { return opts_; }

 private:
  static constexpr unsigned kMaxLanes = 64;

  // One cache line per worker lane: the counter is the only mutable state
  // and only its own worker increments it, so lanes never contend.
  struct alignas(64) Lane {
    std::atomic<std::uint64_t> boundaries{0};
    std::atomic<std::uint64_t> perturbed{0};
  };

  static void hook_fn(void* state, unsigned worker);
  void perturb(unsigned worker);

  StressOptions opts_;
  std::uint64_t yield_cut_ = 0;  ///< decision thresholds on the hash value
  std::uint64_t spin_cut_ = 0;
  std::unique_ptr<Lane[]> lanes_;
  StressHook hook_{};
};

}  // namespace gcg::check
