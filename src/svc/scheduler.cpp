#include "svc/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "check/check.hpp"
#include "coloring/priorities.hpp"
#include "par/pool.hpp"
#include "par/runner.hpp"

namespace gcg::svc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Validates the spec's enumerated fields and its deadline; returns an
/// error detail or "". The one place a JobSpec's values are checked, so
/// a submit over the socket and an in-process one are refused, and
/// counted, alike.
std::string validate_spec(const JobSpec& spec) {
  try {
    priority_mode_from_name(spec.priority);
    par::par_algorithm_from_name(spec.algorithm);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (!spec.order.empty()) {
    try {
      order_from_name(spec.order);
    } catch (const std::exception&) {
      return "\"order\" must be one of natural, random, degree-desc, "
             "degree-asc, bfs, rcm";
    }
  }
  if (spec.deadline_ms < 0.0) return "\"deadline_ms\" must be >= 0";
  return "";
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions opts)
    : opts_(opts),
      registry_(opts.registry),
      queue_(opts.queue_capacity),
      latency_ms_(kLatencyWindow) {
  const unsigned dispatchers = std::max(1u, opts_.dispatchers);
  unsigned per_job = opts_.threads_per_job;
  if (per_job == 0) {
    per_job = std::max(1u, par::ThreadPool::default_threads() / dispatchers);
  }
  dispatchers_.reserve(dispatchers);
  for (unsigned d = 0; d < dispatchers; ++d) {
    dispatchers_.emplace_back([this, d, per_job] {
      par::ThreadPool pool(per_job);
      (void)d;
      while (true) {
        std::vector<JobPtr> batch = queue_.pop_batch(kBatchLimit);
        if (batch.empty()) return;  // closed and drained
        run_batch(pool, batch);
      }
    });
  }
}

Scheduler::~Scheduler() { shutdown(false); }

Scheduler::Submit Scheduler::submit(JobSpec spec) {
  Submit out;

  std::string key;
  try {
    key = GraphRegistry::canonical_key(spec.graph);
  } catch (const std::exception& e) {
    out.error = "bad_request";
    out.detail = e.what();
  }
  if (out.error.empty()) {
    const std::string detail = validate_spec(spec);
    if (!detail.empty()) {
      out.error = "bad_request";
      out.detail = detail;
    }
  }
  if (!out.error.empty()) {
    sync::LockGuard lock(stats_mu_);
    ++counters_.rejected;
    return out;
  }

  JobPtr job;
  {
    sync::LockGuard lock(jobs_mu_);
    if (!accepting_) {
      out.error = "shutting_down";
      out.detail = "scheduler is shutting down";
    } else {
      job = std::make_shared<JobRecord>(next_id_++, std::move(spec),
                                        std::move(key), Clock::now());
      // Tracked before the push: a dispatcher may pop and finish() the
      // job the instant it hits the queue, and finish() expects the
      // record to already be in jobs_ (status/wait do too).
      jobs_.emplace(job->id, job);
    }
  }
  if (!job) {
    sync::LockGuard lock(stats_mu_);
    ++counters_.rejected;
    return out;
  }

  if (!queue_.try_push(job)) {
    {
      sync::LockGuard lock(jobs_mu_);
      jobs_.erase(job->id);  // never queued; drop the record again
    }
    // Backpressure: the distinct error code clients key off to back off.
    out.error = "queue_full";
    out.detail = "job queue at capacity (" +
                 std::to_string(queue_.capacity()) + ")";
    sync::LockGuard lock(stats_mu_);
    ++counters_.rejected;
    return out;
  }

  {
    sync::LockGuard lock(stats_mu_);
    ++counters_.submitted;
  }
  out.accepted = true;
  out.id = job->id;
  return out;
}

std::optional<JobSnapshot> Scheduler::status(std::uint64_t id) const {
  JobPtr job;
  {
    sync::LockGuard lock(jobs_mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
  }
  return snapshot(*job);
}

std::optional<JobSnapshot> Scheduler::wait(std::uint64_t id,
                                           double timeout_ms) {
  JobPtr job;
  {
    sync::LockGuard lock(jobs_mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
  }
  sync::LockGuard lock(job->mu);
  if (timeout_ms > 0.0) {
    // Deadline-based so a spurious wakeup cannot stretch the timeout.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               timeout_ms));
    while (!job->terminal_locked() && job->cv.wait_until(job->mu, deadline)) {
    }
  } else {
    while (!job->terminal_locked()) job->cv.wait(job->mu);
  }
  JobSnapshot s;
  s.id = job->id;
  s.spec = job->spec;
  s.status = job->status;
  s.result = job->result;
  return s;
}

bool Scheduler::cancel(std::uint64_t id) {
  JobPtr job;
  {
    sync::LockGuard lock(jobs_mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    job = it->second;
  }
  {
    sync::LockGuard lock(job->mu);
    if (job->terminal_locked()) return false;
  }
  // order: relaxed — standalone flag; the worker only polls it and no
  // data is published through it.
  job->cancel.store(true, std::memory_order_relaxed);
  // If it is still queued, retire it immediately; if it already left the
  // queue the running dispatcher observes the flag at the next iteration.
  if (JobPtr queued = queue_.remove(id)) {
    fail_terminal(queued, JobStatus::kCancelled, "cancelled");
  }
  return true;
}

void Scheduler::run_batch(par::ThreadPool& pool,
                          const std::vector<JobPtr>& batch) {
  {
    sync::LockGuard lock(stats_mu_);
    ++counters_.batches;
    if (batch.size() > 1) counters_.batched_jobs += batch.size();
  }

  std::shared_ptr<const Csr> graph;
  bool cache_hit = false;
  std::string load_error;
  try {
    graph = registry_.acquire(batch.front()->graph_key, &cache_hit);
  } catch (const std::exception& e) {
    load_error = e.what();
  }

  bool first = true;
  for (const JobPtr& job : batch) {
    if (!graph) {
      fail_terminal(job, JobStatus::kFailed,
                    std::string("bad_graph: ") + load_error);
      continue;
    }
    // Every job after the first in a batch is a cache hit by construction:
    // the batch exists because the graph was already resident.
    run_one(pool, job, graph, cache_hit || !first);
    first = false;
  }
}

void Scheduler::run_one(par::ThreadPool& pool, const JobPtr& job,
                        const std::shared_ptr<const Csr>& graph,
                        bool cache_hit) {
  const Clock::time_point dispatched = Clock::now();
  const bool has_deadline = job->spec.deadline_ms > 0.0;
  const Clock::time_point deadline =
      job->submitted + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               job->spec.deadline_ms));

  // order: relaxed — poll of the standalone cancel flag.
  if (job->cancel.load(std::memory_order_relaxed)) {
    fail_terminal(job, JobStatus::kCancelled, "cancelled");
    return;
  }
  if (has_deadline && dispatched > deadline) {
    fail_terminal(job, JobStatus::kCancelled, "deadline_exceeded");
    return;
  }

  {
    sync::LockGuard lock(job->mu);
    job->status = JobStatus::kRunning;
  }
  job->cv.notify_all();

  JobResult result;
  result.queue_ms = ms_since(job->submitted, dispatched);
  result.cache_hit = cache_hit;
  result.mapped = graph->is_view();  // zero-copy: served off the mmap store

  try {
    par::ParOptions popts;
    popts.priority = priority_mode_from_name(job->spec.priority);
    popts.seed = job->spec.seed;
    if (!job->spec.order.empty()) {
      // Validated at submit; the runner colors the graph in this visit
      // order, in place, so the colors stay in the caller's vertex ids.
      popts.order = order_from_name(job->spec.order);
    }
    JobRecord* rec = job.get();
    popts.should_cancel = [rec, has_deadline, deadline] {
      // order: relaxed — poll of the standalone cancel flag.
      return rec->cancel.load(std::memory_order_relaxed) ||
             (has_deadline && Clock::now() > deadline);
    };
    par::ParRun run = par::run_par_coloring(
        pool, *graph, par::par_algorithm_from_name(job->spec.algorithm),
        popts);
    result.num_colors = run.num_colors;
    result.iterations = run.iterations;
    result.run_ms = run.wall_ms;
    result.reorder_ms = run.reorder_ms;
    result.threads = run.threads;
    std::vector<color_t> colors = std::move(run.colors);

    if (run.cancelled) {
      // order: relaxed — poll of the standalone cancel flag.
      const char* why = job->cancel.load(std::memory_order_relaxed)
                            ? "cancelled"
                            : "deadline_exceeded";
      finish(job, JobStatus::kCancelled, [&] {
        JobResult r = std::move(result);
        r.error = why;
        return r;
      }());
      return;
    }

    if (const auto violation = check::verify_coloring(*graph, colors)) {
      JobResult r = std::move(result);
      r.error = "invalid_coloring: " + violation->to_string();
      finish(job, JobStatus::kFailed, std::move(r));
      return;
    }
    result.verified = true;
    if (job->spec.keep_colors) result.colors = std::move(colors);
    finish(job, JobStatus::kDone, std::move(result));
  } catch (const std::exception& e) {
    JobResult r = std::move(result);
    r.error = e.what();
    finish(job, JobStatus::kFailed, std::move(r));
  }
}

void Scheduler::finish(const JobPtr& job, JobStatus status, JobResult result) {
  result.latency_ms = ms_since(job->submitted, Clock::now());
  // Counters first: anyone whom the cv below wakes must already see this
  // job reflected in stats().
  {
    sync::LockGuard lock(stats_mu_);
    switch (status) {
      case JobStatus::kDone: ++counters_.completed; break;
      case JobStatus::kFailed: ++counters_.failed; break;
      case JobStatus::kCancelled: ++counters_.cancelled; break;
      default: break;
    }
    latency_ms_.add(result.latency_ms);
  }
  {
    sync::LockGuard lock(job->mu);
    job->status = status;
    job->result = std::move(result);
  }
  job->cv.notify_all();

  // Bound the record table: retire the oldest terminal records.
  sync::LockGuard lock(jobs_mu_);
  terminal_order_.push_back(job->id);
  while (terminal_order_.size() > kRetainedJobs) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

void Scheduler::fail_terminal(const JobPtr& job, JobStatus status,
                              const std::string& error) {
  JobResult r;
  r.error = error;
  finish(job, status, std::move(r));
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  {
    sync::LockGuard lock(stats_mu_);
    s = counters_;
    s.latency_samples = latency_ms_.count();
    if (s.latency_samples > 0) {
      s.latency_p50_ms = latency_ms_.percentile(50.0);
      s.latency_p90_ms = latency_ms_.percentile(90.0);
      s.latency_p99_ms = latency_ms_.percentile(99.0);
      s.latency_mean_ms = latency_ms_.summary().mean();
      s.latency_max_ms = latency_ms_.summary().max();
    }
  }
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  {
    sync::LockGuard lock(jobs_mu_);
    s.jobs_tracked = jobs_.size();
  }
  s.registry = registry_.stats();
  return s;
}

void Scheduler::shutdown(bool drain) {
  {
    sync::LockGuard lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  {
    sync::LockGuard lock(jobs_mu_);
    accepting_ = false;
  }
  if (!drain) {
    // Retire everything still queued before the dispatchers get to it.
    std::vector<JobPtr> doomed;
    for (JobPtr j; (j = queue_.remove_front()) != nullptr;) {
      doomed.push_back(std::move(j));
    }
    for (const JobPtr& j : doomed) {
      fail_terminal(j, JobStatus::kCancelled, "shutting_down");
    }
  }
  queue_.close();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace gcg::svc
