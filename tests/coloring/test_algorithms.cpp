// End-to-end algorithm correctness: every GPU algorithm must produce a
// valid, complete coloring on every graph shape, deterministically.
#include "coloring/runner.hpp"

#include <gtest/gtest.h>

#include "coloring/seq_greedy.hpp"
#include "check/coloring.hpp"
#include "graph/gen/grid.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/special.hpp"

namespace gcg {
namespace {

simgpu::DeviceConfig small_device() { return simgpu::test_device(); }

struct Case {
  const char* name;
  Csr graph;
};

std::vector<Case> test_graphs() {
  std::vector<Case> cases;
  cases.push_back({"petersen", make_petersen()});
  cases.push_back({"path", make_path(33)});
  cases.push_back({"odd_cycle", make_cycle(17)});
  cases.push_back({"star", make_star(70)});
  cases.push_back({"complete", make_complete(12)});
  cases.push_back({"grid", make_grid2d(11, 7)});
  cases.push_back({"ba", make_barabasi_albert(300, 3, 5)});
  cases.push_back({"rmat", make_rmat(8, 4, {}, 6)});
  cases.push_back({"er", make_erdos_renyi_gnm(200, 600, 7)});
  cases.push_back({"isolated", make_empty(40)});
  cases.push_back({"single", make_empty(1)});
  return cases;
}

class AlgorithmTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmTest, ValidCompleteColoringOnAllShapes) {
  for (const Case& c : test_graphs()) {
    const ColoringRun run = run_coloring(small_device(), c.graph, GetParam());
    EXPECT_TRUE(check::is_valid_coloring(c.graph, run.colors))
        << c.name << ": " << check::verify_coloring(c.graph, run.colors)->to_string();
    EXPECT_EQ(run.num_colors, count_colors(run.colors)) << c.name;
    EXPECT_GT(run.iterations, 0u) << c.name;
    EXPECT_GT(run.total_cycles, 0.0) << c.name;
  }
}

TEST_P(AlgorithmTest, DeterministicForFixedSeed) {
  const Csr g = make_barabasi_albert(250, 3, 9);
  ColoringOptions opts;
  opts.seed = 1234;
  const ColoringRun a = run_coloring(small_device(), g, GetParam(), opts);
  const ColoringRun b = run_coloring(small_device(), g, GetParam(), opts);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.total_cycles, b.total_cycles);
}

TEST_P(AlgorithmTest, ColorsLowerBoundedByChromaticNumber) {
  // No valid coloring can beat chi: K12 needs 12, odd cycle needs 3.
  const ColoringRun k = run_coloring(small_device(), make_complete(12), GetParam());
  EXPECT_GE(k.num_colors, 12);
  const ColoringRun c = run_coloring(small_device(), make_cycle(17), GetParam());
  EXPECT_GE(c.num_colors, 3);
}

TEST_P(AlgorithmTest, ActivityAccountsForEveryVertex) {
  const Csr g = make_barabasi_albert(300, 3, 4);
  const ColoringRun run = run_coloring(small_device(), g, GetParam());
  std::uint64_t colored = 0;
  std::uint64_t prev_active = g.num_vertices();
  for (const auto& pt : run.activity) {
    colored += pt.colored_this_iter;
    EXPECT_LE(pt.active_vertices, prev_active);  // frontier never grows
    EXPECT_GT(pt.colored_this_iter, 0u);
    prev_active = pt.active_vertices;
  }
  EXPECT_EQ(colored, g.num_vertices());
}

INSTANTIATE_TEST_SUITE_P(All, AlgorithmTest,
                         ::testing::ValuesIn(all_algorithms()),
                         [](const auto& param_info) {
                           std::string n = algorithm_name(param_info.param);
                           for (auto& c : n) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return n;
                         });

TEST(AlgorithmNames, RoundTrip) {
  for (Algorithm a : all_algorithms()) {
    EXPECT_EQ(algorithm_from_name(algorithm_name(a)), a);
  }
  EXPECT_THROW(algorithm_from_name("nope"), std::invalid_argument);
}

TEST(AlgorithmSemantics, MaxMinUsesAtMostTwoColorsPerIteration) {
  const Csr g = make_barabasi_albert(400, 3, 2);
  const ColoringRun run = run_coloring(small_device(), g, Algorithm::kBaseline);
  EXPECT_LE(run.num_colors, static_cast<int>(2 * run.iterations));
  // And JPL at most one per iteration.
  const ColoringRun jpl = run_coloring(small_device(), g, Algorithm::kJpl);
  EXPECT_LE(jpl.num_colors, static_cast<int>(jpl.iterations));
}

TEST(AlgorithmSemantics, MaxMinHalvesJplIterations) {
  // Coloring two classes per round should need materially fewer rounds.
  const Csr g = make_erdos_renyi_gnm(500, 2500, 3);
  const auto mm = run_coloring(small_device(), g, Algorithm::kBaseline);
  const auto jpl = run_coloring(small_device(), g, Algorithm::kJpl);
  EXPECT_LT(mm.iterations, jpl.iterations);
}

TEST(AlgorithmSemantics, SpeculativeMatchesGreedyQualityBallpark) {
  const Csr g = make_erdos_renyi_gnm(500, 2500, 5);
  const auto spec = run_coloring(small_device(), g, Algorithm::kSpeculative);
  const auto greedy = greedy_color(g, GreedyOrder::kNatural);
  // Speculative is a parallel greedy: same color-count ballpark (within 2x),
  // and typically far fewer iterations than JPL.
  EXPECT_LE(spec.num_colors, greedy.num_colors * 2);
  EXPECT_LT(spec.iterations, 64u);
}

TEST(AlgorithmSemantics, WorklistVariantsMatchBaselineColoring) {
  // Same priorities, same independent sets: worklist and steal must produce
  // the exact same colors as the topology-driven baseline.
  const Csr g = make_barabasi_albert(300, 4, 8);
  ColoringOptions opts;
  opts.seed = 99;
  const auto base = run_coloring(small_device(), g, Algorithm::kBaseline, opts);
  const auto edge =
      run_coloring(small_device(), g, Algorithm::kEdgeParallel, opts);
  const auto wl = run_coloring(small_device(), g, Algorithm::kWorklist, opts);
  const auto stat =
      run_coloring(small_device(), g, Algorithm::kPersistentStatic, opts);
  const auto steal = run_coloring(small_device(), g, Algorithm::kSteal, opts);
  const auto hybrid = run_coloring(small_device(), g, Algorithm::kHybrid, opts);
  const auto hsteal =
      run_coloring(small_device(), g, Algorithm::kHybridSteal, opts);
  EXPECT_EQ(base.colors, edge.colors);
  EXPECT_EQ(base.colors, wl.colors);
  EXPECT_EQ(base.colors, stat.colors);
  EXPECT_EQ(base.colors, steal.colors);
  EXPECT_EQ(base.colors, hybrid.colors);
  EXPECT_EQ(base.colors, hsteal.colors);
  EXPECT_EQ(base.iterations, wl.iterations);
}

TEST(AlgorithmSemantics, StealVariantsActuallySteal) {
  // On a skewed graph the first iterations give some waves hub-heavy
  // chunks; their neighbours must steal at least once. Chunk size 8 keeps
  // several chunks per worker (32 workers on the test device).
  const Csr g = make_barabasi_albert(800, 4, 13);
  ColoringOptions steal_opts;
  steal_opts.chunk_size = 8;
  const auto run = run_coloring(small_device(), g, Algorithm::kSteal, steal_opts);
  EXPECT_GT(run.steal.pops, 0u);
  EXPECT_GT(run.steal.steal_attempts, 0u);
  EXPECT_GT(run.steal.steal_hits, 0u);
}

TEST(AlgorithmSemantics, HybridBinsAreExercised) {
  // star(1500) on the test device: hub degree 1500 > group threshold,
  // leaves degree 1 <= wave threshold.
  ColoringOptions opts;
  opts.wave_degree_threshold = 4;
  opts.group_degree_threshold = 64;
  const Csr g = make_star(1500);
  const auto run = run_coloring(small_device(), g, Algorithm::kHybrid, opts);
  EXPECT_TRUE(check::is_valid_coloring(g, run.colors));
  // Max-min on a star: leaves split into max/min classes around the hub's
  // priority, the hub takes a third color once alone. 2 or 3 colors.
  EXPECT_GE(run.num_colors, 2);
  EXPECT_LE(run.num_colors, 3);
}

TEST(AlgorithmSemantics, PriorityModeChangesColoring) {
  const Csr g = make_barabasi_albert(300, 3, 21);
  ColoringOptions rnd;
  rnd.priority = PriorityMode::kRandom;
  ColoringOptions deg;
  deg.priority = PriorityMode::kDegreeBiased;
  const auto a = run_coloring(small_device(), g, Algorithm::kBaseline, rnd);
  const auto b = run_coloring(small_device(), g, Algorithm::kBaseline, deg);
  EXPECT_TRUE(check::is_valid_coloring(g, b.colors));
  EXPECT_NE(a.colors, b.colors);
}

TEST(AlgorithmSemantics, ChunkSizeDoesNotChangeResult) {
  const Csr g = make_barabasi_albert(300, 3, 2);
  ColoringOptions a, b;
  a.chunk_size = 8;
  b.chunk_size = 128;
  const auto ra = run_coloring(small_device(), g, Algorithm::kSteal, a);
  const auto rb = run_coloring(small_device(), g, Algorithm::kSteal, b);
  EXPECT_EQ(ra.colors, rb.colors);
}

TEST(AlgorithmSemantics, VictimPolicyDoesNotChangeResult) {
  const Csr g = make_barabasi_albert(300, 3, 2);
  std::vector<color_t> reference;
  for (VictimPolicy p :
       {VictimPolicy::kRandom, VictimPolicy::kRichest, VictimPolicy::kRing}) {
    ColoringOptions opts;
    opts.victim = p;
    const auto run = run_coloring(small_device(), g, Algorithm::kSteal, opts);
    EXPECT_TRUE(check::is_valid_coloring(g, run.colors));
    if (reference.empty()) {
      reference = run.colors;
    } else {
      EXPECT_EQ(run.colors, reference) << victim_policy_name(p);
    }
  }
}

TEST(AlgorithmSemantics, CollectLaunchesOffKeepsResultsIdentical) {
  const Csr g = make_grid2d(20, 20);
  ColoringOptions on, off;
  off.collect_launches = false;
  const auto a = run_coloring(small_device(), g, Algorithm::kWorklist, on);
  const auto b = run_coloring(small_device(), g, Algorithm::kWorklist, off);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_DOUBLE_EQ(a.total_cycles, b.total_cycles);
  EXPECT_TRUE(b.launches.empty());
  EXPECT_FALSE(a.launches.empty());
}

TEST(AlgorithmSemantics, RunsOnTahitiConfigToo) {
  const Csr g = make_barabasi_albert(500, 4, 3);
  const auto run = run_coloring(simgpu::tahiti(), g, Algorithm::kHybridSteal);
  EXPECT_TRUE(check::is_valid_coloring(g, run.colors));
}

}  // namespace
}  // namespace gcg
