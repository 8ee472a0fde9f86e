// The reorder-aware pipeline in run_par_coloring: preprocessing orders
// must come back unmapped to the caller's vertex ids (valid on the
// ORIGINAL graph), JPL must stay bit-identical across thread counts and
// SIMD levels within each order, and the pipeline must equal the obvious
// two-step (reorder by hand, color, unmap by hand) computation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/reorder.hpp"
#include "par/runner.hpp"
#include "util/simd.hpp"

namespace gcg {
namespace {

class SimdLevelGuard {
 public:
  ~SimdLevelGuard() { simd::clear_level_override_for_testing(); }
};

std::vector<simd::Level> levels_to_test() {
  std::vector<simd::Level> out = {simd::Level::kScalar};
  if (simd::detect_level() != simd::Level::kScalar) {
    out.push_back(simd::detect_level());
  }
  return out;
}

constexpr Order kOrders[] = {Order::kNatural, Order::kDegreeDescending,
                             Order::kRcm};

par::ParOptions opts_for(Order order, unsigned threads,
                         std::uint64_t seed = 1) {
  par::ParOptions o;
  o.order = order;
  o.threads = threads;
  o.seed = seed;
  return o;
}

TEST(ReorderPipelineTest, ColorsAreValidOnTheOriginalGraph) {
  // The crash-and-validity sweep over algorithm x order x SIMD level x
  // threads, on a power-law graph and a uniform control of matched size.
  SimdLevelGuard guard;
  const Csr rmat = make_rmat(11, 8, {}, 17);
  const Csr gnm = make_erdos_renyi_gnm(rmat.num_vertices(),
                                       rmat.num_arcs() / 2, 17);
  const struct {
    const char* name;
    const Csr& graph;
  } graphs[] = {{"rmat", rmat}, {"uniform", gnm}};
  for (const auto& tc : graphs) {
    for (simd::Level level : levels_to_test()) {
      simd::force_level_for_testing(level);
      for (Order order : {Order::kNatural, Order::kDegreeDescending,
                          Order::kDegreeAscending, Order::kBfs, Order::kRcm,
                          Order::kRandom}) {
        for (par::ParAlgorithm algo : par::all_par_algorithms()) {
          for (unsigned threads : {1u, 2u, 4u}) {
            const par::ParRun run =
                par::run_par_coloring(tc.graph, algo, opts_for(order, threads));
            const std::string where =
                std::string(tc.name) + "/" + simd::level_name(level) + "/" +
                order_name(order) + "/" + par_algorithm_name(algo) + "/" +
                std::to_string(threads) + "t";
            EXPECT_TRUE(check::is_valid_coloring(tc.graph, run.colors))
                << where;
            EXPECT_EQ(run.colors.size(), tc.graph.num_vertices()) << where;
            EXPECT_EQ(run.num_colors, count_colors(run.colors)) << where;
            EXPECT_EQ(run.order, order) << where;
            EXPECT_GE(run.reorder_ms, 0.0) << where;
          }
        }
      }
    }
  }
}

TEST(ReorderPipelineTest, NaturalOrderReportsNoReorderCost) {
  const Csr g = make_erdos_renyi_gnm(2000, 12000, 3);
  const par::ParRun run = par::run_par_coloring(
      g, par::ParAlgorithm::kJpl, opts_for(Order::kNatural, 2));
  EXPECT_EQ(run.order, Order::kNatural);
  EXPECT_EQ(run.reorder_ms, 0.0);
}

TEST(ReorderPipelineTest, PipelineEqualsManualReorderColorUnmap) {
  // Round-trip property: the pipeline's output at vertex v must be what a
  // natural-order run on the hand-relabeled graph assigns to perm[v] (JPL
  // is deterministic, so this is an exact equality, not just same count).
  const Csr g = make_rmat(10, 8, {}, 23);
  for (Order order : {Order::kDegreeDescending, Order::kRcm, Order::kBfs}) {
    const std::vector<vid_t> perm = make_order(g, order, 1);
    const Csr relabeled = apply_order(g, perm);

    const par::ParRun direct = par::run_par_coloring(
        relabeled, par::ParAlgorithm::kJpl, opts_for(Order::kNatural, 2));
    const par::ParRun piped = par::run_par_coloring(
        g, par::ParAlgorithm::kJpl, opts_for(order, 2));

    ASSERT_EQ(piped.colors.size(), g.num_vertices());
    EXPECT_EQ(piped.num_colors, direct.num_colors) << order_name(order);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(piped.colors[v], direct.colors[perm[v]])
          << order_name(order) << " vertex " << v;
    }
  }
}

TEST(ReorderPipelineTest, JplBitIdenticalAcrossThreadsAndSimdLevels) {
  // Within one order, neither the thread count nor the SIMD level may
  // change a single color: the vector first-fit is bit-identical to the
  // scalar scan, and JPL is deterministic for any worker count.
  SimdLevelGuard guard;
  const Csr g = make_rmat(11, 8, {}, 99);
  for (Order order : kOrders) {
    simd::force_level_for_testing(simd::Level::kScalar);
    const par::ParRun ref =
        par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_for(order, 1));
    ASSERT_TRUE(check::is_valid_coloring(g, ref.colors)) << order_name(order);

    for (simd::Level level : levels_to_test()) {
      simd::force_level_for_testing(level);
      for (unsigned threads : {1u, 2u, 8u}) {
        const par::ParRun run = par::run_par_coloring(
            g, par::ParAlgorithm::kJpl, opts_for(order, threads));
        EXPECT_EQ(run.colors, ref.colors)
            << order_name(order) << "/" << simd::level_name(level) << "/"
            << threads << "t";
        EXPECT_EQ(run.iterations, ref.iterations)
            << order_name(order) << "/" << simd::level_name(level) << "/"
            << threads << "t";
      }
    }
  }
}

TEST(ReorderPipelineTest, RandomOrderIsSeedDeterministic) {
  const Csr g = make_erdos_renyi_gnm(3000, 18000, 11);
  const par::ParRun a = par::run_par_coloring(
      g, par::ParAlgorithm::kJpl, opts_for(Order::kRandom, 2, 42));
  const par::ParRun b = par::run_par_coloring(
      g, par::ParAlgorithm::kJpl, opts_for(Order::kRandom, 2, 42));
  EXPECT_EQ(a.colors, b.colors);
}

}  // namespace
}  // namespace gcg
