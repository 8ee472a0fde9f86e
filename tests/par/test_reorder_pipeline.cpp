// Ordered runs in run_par_coloring: the colors come back in the caller's
// vertex ids (valid on the ORIGINAL graph), JPL stays bit-identical across
// thread counts and SIMD levels within each order, and a run that walks
// the visit order over the caller's CSR equals the obvious three steps:
// relabel by hand, color, unmap by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/special.hpp"
#include "graph/reorder.hpp"
#include "par/detail/driver.hpp"
#include "par/pool.hpp"
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
  // An ordered run colors the caller's graph in visit order, with
  // priorities taken from each vertex's rank. Its output at vertex v must
  // be what a natural-order run on the hand-relabeled graph assigns to
  // perm[v], with the same iteration count. jpl and steal are
  // schedule-independent, so this holds at every thread count;
  // speculative holds it at 1 thread, where it is sequential first-fit in
  // visit order.
  const Csr g = make_rmat(10, 8, {}, 23);
  const struct {
    par::ParAlgorithm algo;
    std::vector<unsigned> threads;
  } cases[] = {{par::ParAlgorithm::kJpl, {1, 2, 4}},
               {par::ParAlgorithm::kSteal, {1, 2, 4}},
               {par::ParAlgorithm::kSpeculative, {1}}};
  for (Order order : {Order::kNatural, Order::kRandom,
                      Order::kDegreeDescending, Order::kDegreeAscending,
                      Order::kBfs, Order::kRcm}) {
    const std::vector<vid_t> perm = make_order(g, order, 1);
    const Csr relabeled = apply_order(g, perm);
    for (PriorityMode mode : {PriorityMode::kRandom,
                              PriorityMode::kDegreeBiased,
                              PriorityMode::kNaturalOrder}) {
      for (const auto& tc : cases) {
        for (unsigned threads : tc.threads) {
          par::ParOptions natural = opts_for(Order::kNatural, threads);
          natural.priority = mode;
          par::ParOptions ordered = natural;
          ordered.order = order;
          const par::ParRun direct =
              par::run_par_coloring(relabeled, tc.algo, natural);
          const par::ParRun piped = par::run_par_coloring(g, tc.algo, ordered);
          const std::string where =
              std::string(order_name(order)) + "/" + priority_mode_name(mode) +
              "/" + par_algorithm_name(tc.algo) + "/" +
              std::to_string(threads) + "t";

          ASSERT_EQ(piped.colors.size(), g.num_vertices()) << where;
          EXPECT_EQ(piped.num_colors, direct.num_colors) << where;
          EXPECT_EQ(piped.iterations, direct.iterations) << where;
          for (vid_t v = 0; v < g.num_vertices(); ++v) {
            ASSERT_EQ(piped.colors[v], direct.colors[perm[v]])
                << where << " vertex " << v;
          }
        }
      }
    }
  }
}

TEST(ReorderPipelineTest, PriorityTiesBreakOnRank) {
  // Hashed priorities almost never tie, so the runs above cannot tell the
  // tie rule apart; it is pinned here. With equal priorities, the vertex
  // of lower rank (its id in the relabeled graph) is below; with no visit
  // order, the lower id. A priority difference outweighs the rank.
  const Csr g = make_empty(4);
  par::ThreadPool pool(1);
  const par::ParOptions opts;
  par::detail::VisitOrder order;
  order.rank = {2, 0, 3, 1};
  order.visit = {1, 3, 0, 2};
  const par::detail::VisitOrder natural;
  par::detail::DriverState ordered(pool, g, opts, par::ParAlgorithm::kJpl,
                                   order);
  par::detail::DriverState plain(pool, g, opts, par::ParAlgorithm::kJpl,
                                 natural);
  std::fill(ordered.prio.begin(), ordered.prio.end(), 7u);
  std::fill(plain.prio.begin(), plain.prio.end(), 7u);
  for (vid_t a = 0; a < 4; ++a) {
    for (vid_t b = 0; b < 4; ++b) {
      EXPECT_EQ(ordered.priority_below(a, b), order.rank[a] < order.rank[b])
          << a << " vs " << b;
      EXPECT_EQ(plain.priority_below(a, b), a < b) << a << " vs " << b;
    }
  }
  ordered.prio[0] = 8;  // rank 2, above vertex 2 of rank 3
  EXPECT_TRUE(ordered.priority_below(2, 0));
  EXPECT_FALSE(ordered.priority_below(0, 2));
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
