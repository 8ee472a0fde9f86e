// Exhaustive model checker for small concurrent models written against
// the mc:: primitives (mc/model.hpp). check() runs a Model's logical
// threads as cooperative contexts — exactly one runnable at a time — and
// explores every schedule and every legal stale-load result up to a
// preemption bound, with sleep-set pruning. A failure (MC_REQUIRE,
// modeled deadlock, or step-bound hit) stops the search and returns a
// replayable trace.
//
// What is modeled: operations on mc::atomic / mc::atomic_flag /
// mc::mutex / mc::condition_variable and mc::atomic_thread_fence. Plain
// memory accesses between those points run natively and atomically with
// the operation that follows them — data races on plain memory are
// TSan's job, not this checker's.
// lint: allow-next-line(unreached-header) the harness tests/mc drives; test_mc links only gcg_mc
#pragma once

#include <string>
#include <vector>

namespace gcg::mc {

/// Hard cap on explored executions per check(); `Result::complete` is
/// false if hit.
inline constexpr long kMaxExecutions = 1000000;

struct Options {
  /// Max context switches away from a runnable thread per execution
  /// (CHESS-style). Forced switches (current thread blocked or finished)
  /// are free. Most ordering bugs need 1–2 preemptions.
  int preemption_bound = 3;
  /// Per-execution step cap; exceeding it fails the execution (livelock).
  int max_steps = 10000;
  /// Sleep-set pruning (prunes schedules that only commute independent
  /// operations). Correct to disable; exploration just re-visits
  /// equivalent interleavings.
  bool sleep_sets = true;
};

struct Result {
  bool ok = true;        ///< no execution failed
  bool complete = true;  ///< search space exhausted (not capped)
  long executions = 0;   ///< executions explored (including pruned)
  std::string failure;   ///< first failure message, empty when ok
  std::string trace;     ///< ordered thread/op/location/value steps
  /// Decision sequence of the failing execution; feed to replay().
  std::vector<int> trail;
};

/// A checkable model: reset() rebuilds state from scratch (called before
/// every execution, unmodeled), thread(tid) is one logical thread's body
/// (modeled), finally() checks postconditions after all threads finish
/// (unmodeled; MC_REQUIRE allowed).
class Model {
 public:
  virtual ~Model();
  virtual int num_threads() const = 0;
  virtual void reset() = 0;
  virtual void thread(int tid) = 0;
  virtual void finally() {}
};

/// Explore the model exhaustively (subject to Options bounds).
Result check(Model& model, const Options& opts = {});

/// Re-run exactly one execution following `trail` (from Result::trail).
/// Deterministic: the same trail reproduces the same trace bit-for-bit.
Result replay(Model& model, const std::vector<int>& trail,
              const Options& opts = {});

}  // namespace gcg::mc
