// The service's execution core: a team of dispatcher threads pulls
// same-graph batches off the bounded JobQueue, resolves the graph through
// the GraphRegistry, and runs each job on its dispatcher's par pool. The
// registry validates each graph once when it loads it (an invalid graph
// fails its batch as a bad_graph load error), and every coloring is
// verified before a job reports done. Handles admission control (queue-full rejection), per-job
// deadlines and cancellation (via the par backend's should_cancel hook),
// and keeps per-request latency and batch statistics for the `stats`
// verb. Protocol-agnostic: the socket server (svc/server.hpp) and
// in-process users (tests) drive the same API.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/graph_registry.hpp"
#include "svc/job.hpp"
#include "svc/job_queue.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

namespace gcg::par {
class ThreadPool;
}

namespace gcg::svc {

struct SchedulerOptions {
  unsigned dispatchers = 2;     ///< jobs running concurrently
  /// Worker threads per dispatcher pool; 0 splits hardware_concurrency
  /// evenly across dispatchers (min 1). Every par job runs on its
  /// dispatcher's pool.
  unsigned threads_per_job = 0;
  std::size_t queue_capacity = 64;   ///< queued jobs before submit rejects
  std::size_t batch_limit = 8;       ///< max same-graph jobs per dispatch
  std::size_t retain_jobs = 1024;    ///< terminal records kept for queries
  /// Latency samples kept for percentile reporting (sliding window, so
  /// memory and stats-query cost stay bounded on a long-running service).
  std::size_t latency_window = 4096;
  GraphRegistry::Options registry;
};

/// Counters the `stats` verb reports. Latency covers terminal jobs
/// (submit -> done/failed/cancelled); mean/max are all-time, percentiles
/// are over the most recent `latency_window` samples.
struct SchedulerStats {
  std::uint64_t submitted = 0;   ///< accepted into the queue
  std::uint64_t rejected = 0;    ///< refused: queue full or bad request
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t batches = 0;        ///< dispatch batches executed
  std::uint64_t batched_jobs = 0;   ///< jobs that rode a batch of size > 1
  std::size_t queue_depth = 0;      ///< queued right now
  std::size_t queue_capacity = 0;
  std::size_t jobs_tracked = 0;     ///< records queryable right now
  std::size_t latency_samples = 0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;
  GraphRegistry::Stats registry;
};

class Scheduler {
 public:
  /// Outcome of submit: on rejection `error` is a stable machine-readable
  /// code ("queue_full", "bad_request", "shutting_down") and `detail` a
  /// human explanation.
  struct Submit {
    bool accepted = false;
    std::uint64_t id = 0;
    std::string error;
    std::string detail;
  };

  explicit Scheduler(SchedulerOptions opts = {});
  ~Scheduler();  ///< shutdown(false)
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Submit submit(JobSpec spec);

  /// Snapshot of a job, or nullopt if the id is unknown / already evicted.
  std::optional<JobSnapshot> status(std::uint64_t id) const;

  /// Blocks until the job reaches a terminal state (or `timeout_ms`
  /// elapses; 0 = wait forever). nullopt on unknown id; a snapshot in a
  /// non-terminal state on timeout.
  std::optional<JobSnapshot> wait(std::uint64_t id, double timeout_ms = 0.0);

  /// Cancels a job: a queued job terminates immediately, a running one is
  /// stopped at its next iteration boundary. False if the id is unknown
  /// or the job already reached a terminal state.
  bool cancel(std::uint64_t id);

  SchedulerStats stats() const;
  GraphRegistry& registry() { return registry_; }
  const SchedulerOptions& options() const { return opts_; }

  /// Stops admission; `drain` decides whether queued jobs still run or
  /// are cancelled with error "shutting_down". Joins the dispatchers.
  /// Idempotent; running jobs always finish (they hold pool threads).
  void shutdown(bool drain = true);

 private:
  void dispatcher_loop(unsigned index);
  void run_batch(par::ThreadPool& pool, const std::vector<JobPtr>& batch);
  void run_one(par::ThreadPool& pool, const JobPtr& job,
               const std::shared_ptr<const Csr>& graph, bool cache_hit);
  void finish(const JobPtr& job, JobStatus status, JobResult result);
  void fail_terminal(const JobPtr& job, JobStatus status,
                     const std::string& error);

  const SchedulerOptions opts_;
  GraphRegistry registry_;
  JobQueue queue_;
  std::vector<std::thread> dispatchers_;

  mutable sync::Mutex jobs_mu_;
  std::map<std::uint64_t, JobPtr> jobs_ GCG_GUARDED_BY(jobs_mu_);
  /// Eviction order for terminal records.
  std::deque<std::uint64_t> terminal_order_ GCG_GUARDED_BY(jobs_mu_);
  std::uint64_t next_id_ GCG_GUARDED_BY(jobs_mu_) = 1;
  bool accepting_ GCG_GUARDED_BY(jobs_mu_) = true;

  mutable sync::Mutex stats_mu_;
  /// Counter fields only; gauges filled on read.
  SchedulerStats counters_ GCG_GUARDED_BY(stats_mu_);
  /// Bounded: percentiles over a window.
  WindowedStats latency_ms_ GCG_GUARDED_BY(stats_mu_);

  sync::Mutex shutdown_mu_;
  bool shut_down_ GCG_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace gcg::svc
