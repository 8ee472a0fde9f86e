// Degree-aware scheduling tests: the edge-balanced partitioner and the
// bitset first-fit scratch must not change any observable coloring — JPL
// stays bit-identical across thread counts on hub graphs, and the
// speculative/steal algorithms stay valid and complete on skewed degree
// distributions. Skew comes from the inputs: a star and K(8, 3000) whose
// hubs carry thousands of edges (each gets an edge-balanced chunk of its
// own), and RMAT's milder tail.
#include <gtest/gtest.h>

#include <random>

#include "coloring/seq_greedy.hpp"
#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/special.hpp"
#include "par/detail/driver.hpp"
#include "par/runner.hpp"

namespace gcg {
namespace {

constexpr unsigned kThreadCounts[] = {1u, 2u, 8u};

struct NamedGraph {
  const char* name;
  Csr graph;
};

// The star's center has degree 20000 and K(8, 3000)'s left side degree
// 3000, far above their average degrees (~2 and ~16). RMAT is skewed but
// its largest degree stays under 2048.
std::vector<NamedGraph> parity_graphs() {
  std::vector<NamedGraph> out;
  out.push_back({"star", make_star(20'000)});
  out.push_back({"bipartite", make_complete_bipartite(8, 3000)});
  out.push_back({"rmat", make_rmat(12, 8, {}, 99)});
  return out;
}

par::ParOptions opts_for(unsigned threads, std::uint64_t seed = 1) {
  par::ParOptions o;
  o.threads = threads;
  o.seed = seed;
  return o;
}

// --- JPL bit-identical parity ----------------------------------------------

TEST(ScheduleParityTest, JplIsInvariantAcrossThreadsAndHubs) {
  // The 1-thread run is the reference; every wider team must reproduce
  // its colors AND iteration count exactly, hubs or not.
  for (const NamedGraph& tc : parity_graphs()) {
    const par::ParRun ref =
        par::run_par_coloring(tc.graph, par::ParAlgorithm::kJpl, opts_for(1));
    ASSERT_TRUE(check::is_valid_coloring(tc.graph, ref.colors)) << tc.name;

    for (unsigned threads : kThreadCounts) {
      const par::ParRun run = par::run_par_coloring(
          tc.graph, par::ParAlgorithm::kJpl, opts_for(threads));
      EXPECT_EQ(run.colors, ref.colors) << tc.name << "/" << threads << "t";
      EXPECT_EQ(run.iterations, ref.iterations)
          << tc.name << "/" << threads << "t";
    }
  }
}

TEST(ScheduleParityTest, OneThreadSpeculativeStaysSequentialOnHubGraphs) {
  // The 1-thread speculative ≡ sequential-greedy contract must hold on
  // inputs with hubs: one worker claims the edge-balanced chunks in
  // ascending order, so the natural processing order is kept.
  std::vector<NamedGraph> graphs = parity_graphs();
  graphs.push_back({"ba", make_barabasi_albert(4000, 6, 21)});
  for (const NamedGraph& tc : graphs) {
    const SeqColoring seq = greedy_color(tc.graph, GreedyOrder::kNatural);
    const par::ParRun run = par::run_par_coloring(
        tc.graph, par::ParAlgorithm::kSpeculative, opts_for(1));
    EXPECT_EQ(run.colors, seq.colors) << tc.name;
  }
}

// --- validity on skewed graphs ----------------------------------------------

class ScheduleValidityTest
    : public ::testing::TestWithParam<par::ParAlgorithm> {};

TEST_P(ScheduleValidityTest, ValidAndCompleteOnSkewedGraphs) {
  const struct {
    const char* name;
    Csr graph;
  } cases[] = {
      {"rmat", make_rmat(11, 8, {}, 5)},
      {"ba", make_barabasi_albert(3000, 8, 5)},
      {"star", make_star(5000)},
      {"bipartite", make_complete_bipartite(8, 3000)},
      {"gnm", make_erdos_renyi_gnm(3000, 24000, 5)},
  };
  for (const auto& tc : cases) {
    for (unsigned threads : kThreadCounts) {
      const par::ParRun run =
          par::run_par_coloring(tc.graph, GetParam(), opts_for(threads));
      EXPECT_TRUE(check::is_valid_coloring(tc.graph, run.colors))
          << tc.name << " " << threads << "t: "
          << check::verify_coloring(tc.graph, run.colors)->to_string();
      EXPECT_EQ(run.colors.size(), tc.graph.num_vertices()) << tc.name;
      EXPECT_EQ(run.num_colors, count_colors(run.colors))
          << tc.name << " " << threads << "t";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllParAlgorithms, ScheduleValidityTest,
                         ::testing::ValuesIn(par::all_par_algorithms()),
                         [](const auto& param_info) {
                           return std::string(
                               par_algorithm_name(param_info.param));
                         });

// --- bitset first-fit scratch ------------------------------------------------

// Reference first-fit: smallest color not used by any colored neighbour.
color_t naive_first_fit(const Csr& g, const std::vector<color_t>& colors,
                        vid_t v) {
  std::vector<char> used(g.degree(v) + 2, 0);
  for (vid_t u : g.neighbors(v)) {
    const color_t c = colors[u];
    if (c != kUncolored && static_cast<std::size_t>(c) < used.size()) {
      used[static_cast<std::size_t>(c)] = 1;
    }
  }
  color_t c = 0;
  while (used[static_cast<std::size_t>(c)]) ++c;
  return c;
}

TEST(FirstFitScratchTest, BitsetMatchesNaiveOnRandomPartialColorings) {
  const Csr g = make_rmat(10, 8, {}, 13);
  par::detail::FirstFitScratch scratch(g.max_degree());
  std::mt19937_64 rng(7);
  std::vector<color_t> colors(g.num_vertices(), kUncolored);
  // Grow a random valid-ish partial coloring (values don't have to be a
  // proper coloring for first-fit equivalence — any assignment works).
  std::uniform_int_distribution<color_t> pick(0, 40);
  for (std::size_t round = 0; round < 4; ++round) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (rng() % 3 == 0) colors[v] = pick(rng);
    }
    for (vid_t v = 0; v < g.num_vertices(); v += 17) {
      EXPECT_EQ(scratch.first_fit(g, colors, v), naive_first_fit(g, colors, v))
          << "vertex " << v << " round " << round;
    }
  }
}

// Hub inputs of the naive-reference comparison. The two test names date
// from when palettes above 4096 colors took a separate stamp-array path;
// hubs now take the same bitset path as every other vertex (the mask
// holds max_degree+1 bits, so a star center of degree 5000 scans 79
// words), and the names are kept so the hub cases stay tracked.
TEST(FirstFitScratchTest, StampFallbackCoversDegreesAboveTheBitsetCap) {
  const Csr g = make_star(5000);
  ASSERT_GT(g.max_degree() + 1, 4096u);
  par::detail::FirstFitScratch scratch(g.max_degree());
  std::vector<color_t> colors(g.num_vertices(), kUncolored);
  for (vid_t leaf = 1; leaf <= 4500; ++leaf) {
    colors[leaf] = static_cast<color_t>(leaf - 1);  // leaves use 0..4499
  }
  EXPECT_EQ(scratch.first_fit(g, colors, 0), 4500);
  EXPECT_EQ(scratch.first_fit(g, colors, 0), naive_first_fit(g, colors, 0));
}

TEST(FirstFitScratchTest, StampFallbackStartWordHintStaysExact) {
  // Repeated calls on a hub stay exact: a leaf call in between clears only
  // its first word, so the hub's next call must not see stale high words
  // as forbidden, nor miss a freed low color.
  const Csr g = make_star(5000);
  par::detail::FirstFitScratch scratch(g.max_degree());
  std::vector<color_t> colors(g.num_vertices(), kUncolored);
  for (vid_t leaf = 1; leaf <= 4500; ++leaf) {
    colors[leaf] = static_cast<color_t>(leaf - 1);  // leaves use 0..4499
  }
  EXPECT_EQ(scratch.first_fit(g, colors, 0), 4500);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(scratch.first_fit(g, colors, 0), naive_first_fit(g, colors, 0))
        << repeat;
  }

  EXPECT_EQ(scratch.first_fit(g, colors, 7), 0);
  colors[101] = kUncolored;  // color 100 is now available again
  EXPECT_EQ(scratch.first_fit(g, colors, 0), 100);
  EXPECT_EQ(scratch.first_fit(g, colors, 0), naive_first_fit(g, colors, 0));

  // Re-taking the color restores the original answer.
  colors[101] = 100;
  EXPECT_EQ(scratch.first_fit(g, colors, 0), 4500);
}

// --- FrontierAppender wraparound guard ---------------------------------------

#if GTEST_HAS_DEATH_TEST && !defined(__SANITIZE_THREAD__)
TEST(FrontierAppenderDeathTest, OversizedClaimTripsTheAssert) {
  // The old bounds check computed at+count in 32 bits: a huge claim
  // wrapped past zero and "passed". The 64-bit check must abort.
  std::vector<vid_t> out(8);
  par::detail::FrontierAppender app{out};
  app.claim(8);
  EXPECT_DEATH(app.claim(0xFFFFFFF8u), "invariant");
}
#endif

}  // namespace
}  // namespace gcg
