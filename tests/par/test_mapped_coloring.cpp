// Mapped-vs-heap bit-identity: the same coloring algorithm, seed, and
// thread count must produce the exact same color array whether the Csr
// owns its arrays or borrows them from an mmap'ed .gbin v2 file — the
// ownership seam may not leak into results. JPL is deterministic at any
// thread count for a fixed seed; speculative only at 1 thread (conflict
// resolution is timing-dependent in parallel), so multi-thread
// speculative runs are checked for validity instead.
#include "par/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "check/coloring.hpp"
#include "graph/gen/suite.hpp"
#include "store/mapped_graph.hpp"
#include "store/writer.hpp"

namespace gcg {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

struct Fixture {
  Csr heap;
  std::shared_ptr<const store::MappedGraph> handle;  // pins the mapping

  const Csr& mapped() const { return handle->graph(); }
};

Fixture make_fixture(const std::string& tag) {
  Fixture fx;
  fx.heap = make_suite_graph("kron-like", {.scale = 0.03, .seed = 11}).graph;
  const std::string path = temp_path("mapped_color_" + tag + ".gbin");
  store::write_gbin_v2(path, fx.heap);
  fx.handle = store::MappedGraph::open(path);
  std::remove(path.c_str());  // mapping survives the unlink (POSIX)
  EXPECT_TRUE(fx.handle->is_mapped());
  EXPECT_TRUE(fx.handle->graph().is_view());
  return fx;
}

par::ParOptions opts_for(unsigned threads) {
  par::ParOptions o;
  o.seed = 42;
  o.threads = threads;
  return o;
}

class MappedJplIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(MappedJplIdentity, BitIdenticalToHeapRun) {
  const unsigned threads = GetParam();
  const Fixture fx = make_fixture("jpl" + std::to_string(threads));

  const par::ParRun heap_run = par::run_par_coloring(
      fx.heap, par::ParAlgorithm::kJpl, opts_for(threads));
  const par::ParRun mapped_run = par::run_par_coloring(
      fx.mapped(), par::ParAlgorithm::kJpl, opts_for(threads));

  EXPECT_EQ(heap_run.num_colors, mapped_run.num_colors);
  EXPECT_EQ(heap_run.colors, mapped_run.colors);
  EXPECT_TRUE(check::is_valid_coloring(fx.heap, mapped_run.colors));
}

INSTANTIATE_TEST_SUITE_P(Threads, MappedJplIdentity,
                         ::testing::Values(1u, 2u, 8u));

TEST(MappedColoring, SpeculativeBitIdenticalSingleThread) {
  const Fixture fx = make_fixture("spec1");
  const par::ParRun heap_run = par::run_par_coloring(
      fx.heap, par::ParAlgorithm::kSpeculative, opts_for(1));
  const par::ParRun mapped_run = par::run_par_coloring(
      fx.mapped(), par::ParAlgorithm::kSpeculative, opts_for(1));
  EXPECT_EQ(heap_run.colors, mapped_run.colors);
}

TEST(MappedColoring, SpeculativeValidOnMappedViewMultiThread) {
  const Fixture fx = make_fixture("spec4");
  const par::ParRun run = par::run_par_coloring(
      fx.mapped(), par::ParAlgorithm::kSpeculative, opts_for(4));
  EXPECT_GT(run.num_colors, 0);
  EXPECT_TRUE(check::is_valid_coloring(fx.heap, run.colors));
}

TEST(MappedColoring, StealValidOnMappedView) {
  const Fixture fx = make_fixture("steal4");
  const par::ParRun run = par::run_par_coloring(
      fx.mapped(), par::ParAlgorithm::kSteal, opts_for(4));
  EXPECT_GT(run.num_colors, 0);
  EXPECT_TRUE(check::is_valid_coloring(fx.heap, run.colors));
}

}  // namespace
}  // namespace gcg
