#include "svc/scheduler.hpp"

#include <gtest/gtest.h>

#include "svc/protocol.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gcg::svc {
namespace {

constexpr const char* kTiny = "gen:ecology-like?scale=0.02&seed=1";
constexpr const char* kTinySkewed = "gen:kron-like?scale=0.02&seed=1";

SchedulerOptions small_opts() {
  SchedulerOptions opts;
  opts.dispatchers = 2;
  opts.threads_per_job = 2;
  opts.queue_capacity = 32;
  return opts;
}

JobSpec par_job(const std::string& graph, const std::string& algo = "steal") {
  JobSpec spec;
  spec.graph = graph;
  spec.algorithm = algo;
  return spec;
}

TEST(Scheduler, RunsOneJobToCompletion) {
  Scheduler sched(small_opts());
  const auto sub = sched.submit(par_job(kTiny));
  ASSERT_TRUE(sub.accepted) << sub.error << ": " << sub.detail;

  const auto snap = sched.wait(sub.id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kDone);
  EXPECT_GT(snap->result.num_colors, 0);
  EXPECT_TRUE(snap->result.verified);
  EXPECT_GE(snap->result.latency_ms, 0.0);
  EXPECT_TRUE(snap->result.colors.empty()) << "colors only on keep_colors";
}

TEST(Scheduler, AllParAlgorithmsAndPriorities) {
  Scheduler sched(small_opts());
  std::vector<std::uint64_t> ids;
  for (const char* algo : {"speculative", "jpl", "steal"}) {
    for (const char* prio : {"random", "degree-biased", "natural"}) {
      JobSpec spec = par_job(kTiny, algo);
      spec.priority = prio;
      const auto sub = sched.submit(std::move(spec));
      ASSERT_TRUE(sub.accepted) << algo << "/" << prio;
      ids.push_back(sub.id);
    }
  }
  for (const auto id : ids) {
    const auto snap = sched.wait(id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->status, JobStatus::kDone) << snap->result.error;
    EXPECT_TRUE(snap->result.verified);
  }
}

TEST(Scheduler, OrderKnobReachesTheParBackend) {
  Scheduler sched(small_opts());
  // Every order must complete, verify on the ORIGINAL vertex ids (the
  // runner colors the caller's graph in visit order), return a full-size
  // assignment, and report what building the order cost: nothing for the
  // natural order.
  for (const char* order : {"", "degree-desc", "rcm", "random"}) {
    JobSpec spec = par_job(kTinySkewed, "jpl");
    spec.order = order;
    spec.keep_colors = true;
    const auto sub = sched.submit(std::move(spec));
    ASSERT_TRUE(sub.accepted) << order;
    const auto snap = sched.wait(sub.id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->status, JobStatus::kDone)
        << order << ": " << snap->result.error;
    EXPECT_TRUE(snap->result.verified) << order;
    EXPECT_FALSE(snap->result.colors.empty()) << order;
    if (*order == '\0') {
      EXPECT_EQ(snap->result.reorder_ms, 0.0);
    } else {
      EXPECT_GE(snap->result.reorder_ms, 0.0) << order;
    }
  }
}

TEST(Scheduler, ProtocolValidatesOrderKnob) {
  Scheduler sched(small_opts());
  // Unknown order names are refused at submit, and counted.
  const Json bad = handle_request_line(
      sched, std::string("{\"op\":\"submit\",\"graph\":\"") + kTiny +
                 "\",\"order\":\"bogus\"}");
  EXPECT_FALSE(bad.get_bool("ok", true));
  EXPECT_EQ(bad.get_string("error", ""), kErrBadRequest);

  const Json good = handle_request_line(
      sched, std::string("{\"op\":\"submit\",\"graph\":\"") + kTiny +
                 "\",\"order\":\"degree-desc\",\"wait\":true}");
  EXPECT_TRUE(good.get_bool("ok", false)) << good.dump();
  EXPECT_EQ(good.get_string("status", ""), "done");
  const Json* result = good.find("result");
  ASSERT_NE(result, nullptr) << good.dump();
  EXPECT_GE(result->get_double("reorder_ms", -1.0), 0.0) << good.dump();
  EXPECT_EQ(sched.stats().rejected, 1u);
}

TEST(Scheduler, JobSpecJsonRoundTrip) {
  // Every JobSpec field survives job_spec_to_json -> job_spec_from_json,
  // the path a Client-submitted job takes to the scheduler.
  JobSpec s;
  s.graph = kTinySkewed;
  s.algorithm = "jpl";
  s.priority = "degree-biased";
  s.seed = UINT64_MAX;
  s.order = "rcm";
  s.deadline_ms = 250.5;
  s.keep_colors = true;
  const JobSpec r = job_spec_from_json(job_spec_to_json(s));
  EXPECT_EQ(r.graph, s.graph);
  EXPECT_EQ(r.algorithm, s.algorithm);
  EXPECT_EQ(r.priority, s.priority);
  EXPECT_EQ(r.seed, s.seed);
  EXPECT_EQ(r.order, s.order);
  EXPECT_EQ(r.deadline_ms, s.deadline_ms);
  EXPECT_EQ(r.keep_colors, s.keep_colors);

  // Absent fields take the JobSpec defaults.
  Json bare{JsonObject{}};
  bare["graph"] = Json(std::string(kTiny));
  const JobSpec d = job_spec_from_json(bare);
  EXPECT_EQ(d.algorithm, JobSpec{}.algorithm);
  EXPECT_EQ(d.seed, 1u);

  // "par" is the only backend; any other name is an error, never a
  // silently different run.
  bare["backend"] = Json(std::string("par"));
  EXPECT_NO_THROW(job_spec_from_json(bare));
  for (const char* gone : {"shard", "sim"}) {
    bare["backend"] = Json(std::string(gone));
    EXPECT_THROW(job_spec_from_json(bare), std::runtime_error) << gone;
  }
}

TEST(Scheduler, ResultCarriesNoShardKeys) {
  Scheduler sched(small_opts());
  const auto sub = sched.submit(par_job(kTiny));
  ASSERT_TRUE(sub.accepted);
  const auto snap = sched.wait(sub.id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->status, JobStatus::kDone);
  const Json reply = snapshot_reply(*snap);
  const Json* result = reply.find("result");
  ASSERT_NE(result, nullptr) << reply.dump();
  EXPECT_NE(result->find("num_colors"), nullptr);
  for (const char* key :
       {"shards", "conflict_rounds", "recolored", "boundary_fraction"}) {
    EXPECT_EQ(result->find(key), nullptr) << key;
  }
}

TEST(Scheduler, KeepColorsReturnsFullAssignment) {
  Scheduler sched(small_opts());
  JobSpec spec = par_job(kTiny);
  spec.keep_colors = true;
  const auto sub = sched.submit(std::move(spec));
  ASSERT_TRUE(sub.accepted);
  const auto snap = sched.wait(sub.id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kDone);
  EXPECT_FALSE(snap->result.colors.empty());
}

TEST(Scheduler, RejectsBadSpecsUpFront) {
  Scheduler sched(small_opts());
  {
    const auto sub = sched.submit(par_job(kTiny, "no-such-algorithm"));
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.error, "bad_request");
  }
  {
    JobSpec spec = par_job(kTiny);
    spec.priority = "bogus";
    const auto sub = sched.submit(std::move(spec));
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.error, "bad_request");
  }
  {
    const auto sub = sched.submit(par_job("gen:x?bogus=1"));
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.error, "bad_request");
  }
  {
    JobSpec spec = par_job(kTiny);
    spec.order = "bogus";
    const auto sub = sched.submit(std::move(spec));
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.error, "bad_request");
  }
  {
    JobSpec spec = par_job(kTiny);
    spec.deadline_ms = -1.0;
    const auto sub = sched.submit(std::move(spec));
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.error, "bad_request");
  }
  EXPECT_EQ(sched.stats().rejected, 5u);
  EXPECT_EQ(sched.stats().submitted, 0u);
}

TEST(Scheduler, BadGraphFailsTheJobNotTheService) {
  Scheduler sched(small_opts());
  const auto sub = sched.submit(par_job("/nonexistent/graph.mtx"));
  ASSERT_TRUE(sub.accepted) << "spec is well-formed; failure is async";
  const auto snap = sched.wait(sub.id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kFailed);
  EXPECT_NE(snap->result.error.find("bad_graph"), std::string::npos);

  // Service still healthy afterwards.
  const auto ok = sched.submit(par_job(kTiny));
  ASSERT_TRUE(ok.accepted);
  EXPECT_EQ(sched.wait(ok.id)->status, JobStatus::kDone);
}

TEST(Scheduler, QueueFullYieldsDistinctError) {
  SchedulerOptions opts = small_opts();
  opts.dispatchers = 1;
  opts.threads_per_job = 1;
  opts.queue_capacity = 2;
  Scheduler sched(opts);

  // Enough submissions that the 2-deep queue must overflow while the
  // single dispatcher works: collect at least one queue_full.
  bool saw_queue_full = false;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64 && !saw_queue_full; ++i) {
    const auto sub = sched.submit(par_job(kTiny));
    if (sub.accepted) {
      ids.push_back(sub.id);
    } else {
      EXPECT_EQ(sub.error, "queue_full");
      EXPECT_NE(sub.detail.find("capacity"), std::string::npos);
      saw_queue_full = true;
    }
  }
  EXPECT_TRUE(saw_queue_full);
  for (const auto id : ids) sched.wait(id);
  EXPECT_GE(sched.stats().rejected, 1u);
}

TEST(Scheduler, CacheHitsAcrossJobsOnSameGraph) {
  Scheduler sched(small_opts());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const auto sub = sched.submit(par_job(i % 2 ? kTiny : kTinySkewed));
    ASSERT_TRUE(sub.accepted);
    ids.push_back(sub.id);
  }
  bool any_cache_hit = false;
  for (const auto id : ids) {
    const auto snap = sched.wait(id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->status, JobStatus::kDone) << snap->result.error;
    any_cache_hit = any_cache_hit || snap->result.cache_hit;
  }
  EXPECT_TRUE(any_cache_hit);
  const auto s = sched.stats();
  EXPECT_EQ(s.registry.misses, 2u) << "two distinct graphs";
  EXPECT_GT(s.registry.hits + s.batched_jobs, 0u);
}

TEST(Scheduler, CancelQueuedJob) {
  SchedulerOptions opts = small_opts();
  opts.dispatchers = 1;
  opts.queue_capacity = 16;
  Scheduler sched(opts);

  // Head-of-line work keeps the dispatcher busy while we cancel.
  std::vector<std::uint64_t> head;
  for (int i = 0; i < 3; ++i) {
    head.push_back(sched.submit(par_job(kTinySkewed)).id);
  }
  const auto victim = sched.submit(par_job(kTiny));
  ASSERT_TRUE(victim.accepted);
  const bool cancelled = sched.cancel(victim.id);
  const auto snap = sched.wait(victim.id);
  ASSERT_TRUE(snap.has_value());
  if (cancelled && snap->status == JobStatus::kCancelled) {
    EXPECT_EQ(snap->result.error, "cancelled");
  } else {
    // Raced with dispatch: the job ran to completion first. Legal.
    EXPECT_EQ(snap->status, JobStatus::kDone);
  }
  for (const auto id : head) sched.wait(id);
}

TEST(Scheduler, DeadlineAlreadyExpiredCancels) {
  SchedulerOptions opts = small_opts();
  opts.dispatchers = 1;
  Scheduler sched(opts);

  // Pile enough work ahead that the deadline (1 microsecond, effectively)
  // has passed by the time the victim dispatches.
  std::vector<std::uint64_t> head;
  for (int i = 0; i < 3; ++i) {
    head.push_back(sched.submit(par_job(kTinySkewed)).id);
  }
  JobSpec spec = par_job(kTiny);
  spec.deadline_ms = 0.001;
  const auto sub = sched.submit(std::move(spec));
  ASSERT_TRUE(sub.accepted);
  const auto snap = sched.wait(sub.id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  EXPECT_EQ(snap->result.error, "deadline_exceeded");
  for (const auto id : head) sched.wait(id);
}

TEST(Scheduler, WaitTimeoutReturnsNonTerminalSnapshot) {
  SchedulerOptions opts = small_opts();
  opts.dispatchers = 1;
  Scheduler sched(opts);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sched.submit(par_job(kTinySkewed)).id);
  }
  // The tail job can't be done within ~0 ms while the head still runs.
  const auto snap = sched.wait(ids.back(), 0.01);
  ASSERT_TRUE(snap.has_value());
  // Non-terminal or terminal are both possible on a fast machine, but the
  // call must return promptly either way — the assertion is on liveness.
  for (const auto id : ids) sched.wait(id);
}

TEST(Scheduler, UnknownIdsAreReported) {
  Scheduler sched(small_opts());
  EXPECT_FALSE(sched.status(999).has_value());
  EXPECT_FALSE(sched.wait(999).has_value());
  EXPECT_FALSE(sched.cancel(999));
}

TEST(Scheduler, ShutdownWithoutDrainCancelsBacklog) {
  SchedulerOptions opts = small_opts();
  opts.dispatchers = 1;
  Scheduler sched(opts);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const auto sub = sched.submit(par_job(kTinySkewed));
    if (sub.accepted) ids.push_back(sub.id);
  }
  sched.shutdown(/*drain=*/false);

  // Everything is terminal now: done (got dispatched) or cancelled.
  std::size_t cancelled = 0;
  for (const auto id : ids) {
    const auto snap = sched.status(id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_TRUE(snap->status == JobStatus::kDone ||
                snap->status == JobStatus::kCancelled ||
                snap->status == JobStatus::kFailed);
    if (snap->status == JobStatus::kCancelled) {
      EXPECT_EQ(snap->result.error, "shutting_down");
      ++cancelled;
    }
  }

  const auto sub = sched.submit(par_job(kTiny));
  EXPECT_FALSE(sub.accepted);
  EXPECT_EQ(sub.error, "shutting_down");
}

TEST(Scheduler, StatsCountersAddUp) {
  Scheduler sched(small_opts());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(sched.submit(par_job(kTiny)).id);
  }
  for (const auto id : ids) sched.wait(id);
  const auto s = sched.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.latency_samples, 5u);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_LE(s.latency_p50_ms, s.latency_p99_ms);
  EXPECT_EQ(s.queue_depth, 0u);
}

}  // namespace
}  // namespace gcg::svc
