// Job model for the coloring service: what a client asks for (JobSpec),
// what the service records about it (JobRecord), and what comes back
// (JobResult). JobRecords are shared between the queue, the scheduler's
// dispatcher threads, and any number of waiting/polling clients, so all
// mutable state is guarded by the record's own mutex (except the cancel
// flag, which the par backend polls lock-free mid-run).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coloring/common.hpp"
#include "util/sync.hpp"

namespace gcg::svc {

/// Every job runs on the native multicore backend (par::run_par_coloring).
struct JobSpec {
  std::string graph;            ///< registry spec: path or gen:name?...
  std::string algorithm = "steal";  ///< par algorithm name
  std::string priority = "random";  ///< PriorityMode name
  std::uint64_t seed = 1;
  /// Vertex visit order ("degree-desc", "rcm", ...; graph/reorder.hpp
  /// names); "" = natural. The graph is colored in place, so colors are
  /// in its original vertex ids regardless.
  std::string order;
  double deadline_ms = 0.0;     ///< from submit; 0 = no deadline
  bool keep_colors = false;     ///< retain the full color array in the result
};

enum class JobStatus {
  kQueued,
  kRunning,
  kDone,       ///< completed, result valid
  kFailed,     ///< load/run/verify error; result.error says why
  kCancelled,  ///< cancel verb or deadline fired before completion
};

const char* job_status_name(JobStatus s);

struct JobResult {
  int num_colors = 0;
  unsigned iterations = 0;
  double run_ms = 0.0;        ///< wall time inside the coloring run
  double reorder_ms = 0.0;    ///< building the job's visit order (0 when
                              ///< natural), outside run_ms
  double latency_ms = 0.0;    ///< submit -> terminal state
  double queue_ms = 0.0;      ///< submit -> dispatch
  unsigned threads = 0;       ///< threads the run actually used
  bool verified = false;      ///< conflict-free per check::verify_coloring
  bool cache_hit = false;     ///< graph came from the registry cache
  bool mapped = false;        ///< graph served zero-copy off the mmap store
  std::string error;          ///< set for kFailed / kCancelled
  std::vector<color_t> colors;  ///< only when spec.keep_colors
};

/// One job's full lifetime. Status/result transitions happen under `mu`
/// and are announced on `cv`; `cancel` is an atomic so the running
/// coloring can poll it without locking.
struct JobRecord {
  JobRecord(std::uint64_t job_id, JobSpec s, std::string key,
            std::chrono::steady_clock::time_point now)
      : id(job_id), spec(std::move(s)), graph_key(std::move(key)),
        submitted(now) {}

  const std::uint64_t id;
  const JobSpec spec;
  const std::string graph_key;  ///< canonical registry key (batching key)
  const std::chrono::steady_clock::time_point submitted;
  sync::atomic<bool> cancel{false};

  mutable sync::Mutex mu;
  mutable sync::CondVar cv;
  JobStatus status GCG_GUARDED_BY(mu) = JobStatus::kQueued;
  JobResult result GCG_GUARDED_BY(mu);

  bool terminal_locked() const GCG_REQUIRES(mu) {
    return status == JobStatus::kDone || status == JobStatus::kFailed ||
           status == JobStatus::kCancelled;
  }
};

using JobPtr = std::shared_ptr<JobRecord>;

/// Immutable copy of a job's externally visible state, safe to serialize
/// after the record has moved on.
struct JobSnapshot {
  std::uint64_t id = 0;
  JobSpec spec;
  JobStatus status = JobStatus::kQueued;
  JobResult result;
};

JobSnapshot snapshot(const JobRecord& rec);

}  // namespace gcg::svc
