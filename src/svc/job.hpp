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

/// Which execution backend colors the graph.
enum class Backend {
  kPar,    ///< native multicore (par::run_par_coloring) — the serving path
  kShard,  ///< multi-process sharded coloring (src/shard/ coordinator)
};

const char* backend_name(Backend b);
Backend backend_from_name(const std::string& name);
/// Algorithm a job runs when its spec names none: steal for par, jpl for
/// shard (deterministic, so sharded results stay bit-stable across worker
/// counts — docs/SHARDING.md).
const char* default_algorithm(Backend b);

struct JobSpec {
  std::string graph;            ///< registry spec: path or gen:name?...
  Backend backend = Backend::kPar;
  std::string algorithm = "steal";  ///< backend-specific algorithm name
  std::string priority = "random";  ///< PriorityMode name
  std::uint64_t seed = 1;
  /// par only: preprocessing vertex order ("degree-desc", "rcm", ...;
  /// graph/reorder.hpp names); "" = natural. Colors come back in the
  /// graph's original vertex ids regardless. For kShard use a gen: spec
  /// with an order= parameter instead (the workers must resolve the
  /// reordered graph themselves).
  std::string order;
  double deadline_ms = 0.0;     ///< from submit; 0 = no deadline
  bool keep_colors = false;     ///< retain the full color array in the result
  unsigned shards = 0;          ///< shard only: partition count; 0 = default
  unsigned shard_rounds = 0;    ///< shard only: conflict-round cap; 0 = default
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
  double latency_ms = 0.0;    ///< submit -> terminal state
  double queue_ms = 0.0;      ///< submit -> dispatch
  unsigned threads = 0;       ///< threads the run actually used
  bool verified = false;      ///< conflict-free per check::verify_coloring
  bool cache_hit = false;     ///< graph came from the registry cache
  bool mapped = false;        ///< graph served zero-copy off the mmap store
  std::string error;          ///< set for kFailed / kCancelled
  std::vector<color_t> colors;  ///< only when spec.keep_colors
  // --- shard backend only (shards == 0 otherwise) --------------------------
  unsigned shards = 0;            ///< shards the graph was partitioned into
  unsigned conflict_rounds = 0;   ///< boundary conflict rounds driven
  std::uint64_t recolored = 0;    ///< vertices recolored across all rounds
  double boundary_fraction = 0.0; ///< boundary vertices / total vertices
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
