// Bounded MPMC batching queue, extracted from job_queue.hpp as a template
// over the job handle + a Traits policy so the model checker can
// instantiate the exact production code on a tiny test job type:
// tests/mc/test_mc_queue.cpp compiles this file with GCG_MC_MODEL and
// exhaustively checks FIFO-per-producer batching and shutdown. The
// service front door (svc::JobQueue) is an instantiation over JobPtr.
// Internal header.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace gcg::svc::detail {

/// Bounded queue with batch-by-key pops and explicit backpressure: a full
/// queue rejects at push time instead of buffering unboundedly, and
/// pop_batch drains all queued entries sharing the front's batching key.
///
/// Traits must provide, for a `const JobT& j`:
///   * `Traits::key(j)` — the batching key (equality-comparable),
///   * `Traits::id(j)`  — the removal id (equality-comparable).
/// JobT must be movable; a moved-from JobT is returned as the "not found"
/// value from remove()/remove_front(), so JobT{} should be falsy-testable
/// by callers (shared_ptr, optional, ...).
template <class JobT, class Traits>
class BasicBatchQueue {
 public:
  using id_type = std::decay_t<decltype(Traits::id(std::declval<const JobT&>()))>;


  /// capacity = max queued (not yet dispatched) jobs before push rejects.
  explicit BasicBatchQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("job queue capacity must be >= 1");
    }
  }

  /// Non-blocking; false means the queue is full (backpressure) or closed.
  bool try_push(JobT job) {
    {
      sync::LockGuard lock(mu_);
      if (closed_ || q_.size() >= capacity_) return false;
      q_.push_back(std::move(job));
    }
    cv_.notify_one();
    return true;
  }

  /// Pops the oldest job plus up to `max_jobs - 1` younger jobs whose
  /// key matches the front's. Blocks while empty; returns an empty vector
  /// once closed and drained.
  std::vector<JobT> pop_batch(std::size_t max_jobs) {
    sync::LockGuard lock(mu_);
    while (!closed_ && q_.empty()) cv_.wait(mu_);
    std::vector<JobT> batch;
    if (q_.empty()) return batch;  // closed and drained

    batch.push_back(std::move(q_.front()));
    q_.pop_front();
    const auto& key = Traits::key(batch.front());
    for (auto it = q_.begin();
         it != q_.end() &&
         batch.size() < std::max<std::size_t>(max_jobs, 1);) {
      if (Traits::key(*it) == key) {
        batch.push_back(std::move(*it));
        it = q_.erase(it);
      } else {
        ++it;
      }
    }
    return batch;
  }

  /// Removes a queued job by id (for cancellation before dispatch).
  /// Returns the job if it was still queued, JobT{} otherwise.
  JobT remove(const id_type& id) {
    sync::LockGuard lock(mu_);
    const auto it = std::find_if(q_.begin(), q_.end(), [&](const JobT& j) {
      return Traits::id(j) == id;
    });
    if (it == q_.end()) return JobT{};
    JobT job = std::move(*it);
    q_.erase(it);
    return job;
  }

  /// Pops the oldest queued job without blocking; JobT{} when empty.
  /// Used by non-draining shutdown to retire the queued jobs.
  JobT remove_front() {
    sync::LockGuard lock(mu_);
    if (q_.empty()) return JobT{};
    JobT job = std::move(q_.front());
    q_.pop_front();
    return job;
  }

  /// No further pushes; blocked pop_batch calls drain then return empty.
  void close() {
    {
      sync::LockGuard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    sync::LockGuard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    sync::LockGuard lock(mu_);
    return q_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable sync::Mutex mu_;
  sync::CondVar cv_;
  std::deque<JobT> q_ GCG_GUARDED_BY(mu_);
  bool closed_ GCG_GUARDED_BY(mu_) = false;
};

}  // namespace gcg::svc::detail
