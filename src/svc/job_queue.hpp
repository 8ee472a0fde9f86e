// Bounded MPMC queue of coloring jobs with explicit backpressure: a full
// queue rejects at submit time (the server turns that into a distinct
// `queue_full` reply) instead of buffering unboundedly — the service-layer
// mirror of the paper's bounded per-CU work queues. Dispatchers pop in
// FIFO order but drain *all* queued jobs for the same graph key in one
// batch, so a hot graph is looked up once and stays cache-resident across
// the whole batch.
//
// The queue machinery itself lives in svc/detail/batch_queue.hpp as a
// template so the model checker can instantiate the identical code on a
// tiny job type (tests/mc/test_mc_queue.cpp); this header only binds it
// to JobPtr.
#pragma once

#include <cstdint>
#include <string>

#include "svc/detail/batch_queue.hpp"
#include "svc/job.hpp"

namespace gcg::svc {

/// How BasicBatchQueue reads a JobRecord: batches share a graph_key so a
/// hot graph is looked up once; removal is by job id.
struct JobQueueTraits {
  static const std::string& key(const JobPtr& j) { return j->graph_key; }
  static std::uint64_t id(const JobPtr& j) { return j->id; }
};

using JobQueue = detail::BasicBatchQueue<JobPtr, JobQueueTraits>;

}  // namespace gcg::svc
