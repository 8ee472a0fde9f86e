// Store <-> service integration: the registry must serve .gbin v2 files
// as zero-copy mapped views charged against the mapped-byte pool, legacy
// files must keep the heap path, and a job dispatched through the
// Scheduler onto a packed graph must color a Csr::is_view() graph with
// no CSR heap copy — the end-to-end acceptance path for the store.
#include "svc/graph_registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/gen/suite.hpp"
#include "graph/io/io.hpp"
#include "store/writer.hpp"
#include "svc/scheduler.hpp"

namespace gcg::svc {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Csr small_graph(std::uint64_t seed = 5) {
  return make_suite_graph("kron-like", {.scale = 0.02, .seed = seed}).graph;
}

ScopedFile packed_graph(const std::string& name, std::uint64_t seed = 5) {
  ScopedFile f(temp_path(name));
  store::write_gbin_v2(f.path(), small_graph(seed));
  return f;
}

/// A mapped .gbin v2 file whose arc 0->2 has no mate 2->0.
ScopedFile asymmetric_packed_graph(const std::string& name) {
  ScopedFile f(temp_path(name));
  store::write_gbin_v2(f.path(), Csr({0, 2, 4, 5}, {1, 2, 0, 2, 1}));
  return f;
}

TEST(StoreRegistry, ServesGbin2AsMappedView) {
  const ScopedFile f = packed_graph("reg_mapped.gbin");
  GraphRegistry reg;
  const auto g = reg.acquire(f.path());
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->is_view());
  EXPECT_EQ(g->heap_bytes(), 0u);

  const GraphRegistry::Stats s = reg.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.mapped_entries, 1u);
  // Mapped entries are charged their file size against the mapped pool,
  // not the heap pool.
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_GT(s.mapped_bytes, 0u);
}

TEST(StoreRegistry, MmapStoreOffFallsBackToHeap) {
  const ScopedFile f = packed_graph("reg_nommap.gbin");
  GraphRegistry::Options opts;
  opts.mmap_store = false;
  GraphRegistry reg(opts);
  const auto g = reg.acquire(f.path());
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->is_view());

  const GraphRegistry::Stats s = reg.stats();
  EXPECT_EQ(s.mapped_entries, 0u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(StoreRegistry, LegacyV1TakesHeapPath) {
  const ScopedFile f(temp_path("reg_v1.gbin"));
  {
    std::ofstream out(f.path(), std::ios::binary);
    save_binary(out, small_graph());
  }
  GraphRegistry reg;
  const auto g = reg.acquire(f.path());
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->is_view());
  EXPECT_EQ(reg.stats().mapped_entries, 0u);
}

TEST(StoreRegistry, MappedViewSurvivesEviction) {
  const ScopedFile a = packed_graph("reg_evict_a.gbin", 5);
  const ScopedFile b = packed_graph("reg_evict_b.gbin", 6);
  GraphRegistry::Options opts;
  opts.max_mapped_bytes = 1;  // any mapped entry overflows the pool
  GraphRegistry reg(opts);

  const auto ga = reg.acquire(a.path());
  const auto gb = reg.acquire(b.path());  // evicts a's entry
  EXPECT_GE(reg.stats().evictions, 1u);

  // The evicted view's mapping is pinned by the outstanding shared_ptr;
  // reading through it must still be safe and correct.
  EXPECT_TRUE(ga->is_view());
  EXPECT_NO_THROW(ga->validate());
  EXPECT_TRUE(gb->is_view());
}

TEST(StoreRegistry, MappedPoolDoesNotEvictHeapEntries) {
  const ScopedFile m = packed_graph("reg_pools.gbin");
  GraphRegistry::Options opts;
  opts.max_mapped_bytes = 1;  // mapped pool always over budget
  GraphRegistry reg(opts);

  const auto heap = reg.acquire("gen:ecology-like?scale=0.02&seed=1");
  const auto mapped1 = reg.acquire(m.path());
  // The mapped overage may only push out mapped entries; the heap entry
  // must stay resident (still a cache hit).
  bool hit = false;
  (void)reg.acquire("gen:ecology-like?scale=0.02&seed=1", &hit);
  EXPECT_TRUE(hit);
}

TEST(StoreRegistry, InvalidMappedGraphIsANotCachedLoadError) {
  const ScopedFile f = asymmetric_packed_graph("reg_asym.gbin");
  GraphRegistry reg;
  for (std::uint64_t attempt = 1; attempt <= 2; ++attempt) {
    bool hit = true;
    try {
      reg.acquire(f.path(), &hit);
      ADD_FAILURE() << "an asymmetric graph must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid_graph: asymmetric_edge"),
                std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(hit) << "attempt " << attempt << " must be a miss";
    const GraphRegistry::Stats s = reg.stats();
    EXPECT_EQ(s.misses, attempt);
    EXPECT_EQ(s.load_errors, attempt);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.mapped_bytes, 0u);
  }
}

TEST(StoreRegistry, FailedMappedLoadHasAlreadyEvicted) {
  const ScopedFile a = packed_graph("reg_full_a.gbin", 5);
  const ScopedFile b = packed_graph("reg_full_b.gbin", 6);
  const ScopedFile bad = asymmetric_packed_graph("reg_full_bad.gbin");
  GraphRegistry::Options opts;
  opts.max_entries = 2;
  GraphRegistry reg(opts);
  reg.acquire(a.path());
  reg.acquire(b.path());
  EXPECT_THROW(reg.acquire(bad.path()), std::runtime_error);
  const GraphRegistry::Stats s = reg.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.mapped_entries, 1u);
  bool hit = false;
  reg.acquire(b.path(), &hit);
  EXPECT_TRUE(hit) << "only the coldest entry made room";
}

TEST(StoreScheduler, ColorsPackedGraphZeroCopyEndToEnd) {
  const ScopedFile f = packed_graph("sched_store.gbin");

  SchedulerOptions opts;
  opts.dispatchers = 1;
  Scheduler sched(opts);

  // The acceptance assertion: the registry entry the job will color IS a
  // view — no CSR heap copy anywhere on the serving path.
  const auto g = sched.registry().acquire(f.path());
  ASSERT_TRUE(g->is_view());

  JobSpec spec;
  spec.graph = f.path();
  spec.algorithm = "jpl";
  spec.keep_colors = true;
  const auto sub = sched.submit(spec);
  ASSERT_TRUE(sub.accepted) << sub.detail;
  const auto snap = sched.wait(sub.id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->status, JobStatus::kDone) << snap->result.error;
  EXPECT_TRUE(snap->result.mapped);
  EXPECT_TRUE(snap->result.verified);
  EXPECT_GT(snap->result.num_colors, 0);
  EXPECT_EQ(snap->result.colors.size(), g->num_vertices());
  sched.shutdown();
}

TEST(StoreScheduler, HeapGraphReportsNotMapped) {
  SchedulerOptions opts;
  opts.dispatchers = 1;
  Scheduler sched(opts);
  JobSpec spec;
  spec.graph = "gen:ecology-like?scale=0.02&seed=1";
  spec.algorithm = "jpl";
  const auto sub = sched.submit(spec);
  ASSERT_TRUE(sub.accepted);
  const auto snap = sched.wait(sub.id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->status, JobStatus::kDone) << snap->result.error;
  EXPECT_FALSE(snap->result.mapped);
  sched.shutdown();
}

}  // namespace
}  // namespace gcg::svc
