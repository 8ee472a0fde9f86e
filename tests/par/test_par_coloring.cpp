// End-to-end native backend tests: determinism (fixed seed + 1 thread
// reproduces the sequential reference; jpl is greedy in priority order),
// parity (valid colorings on the full generator suite at several thread
// counts), cancellation, and stats plumbing.
#include "par/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "coloring/priorities.hpp"
#include "coloring/seq_greedy.hpp"
#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/special.hpp"
#include "graph/gen/suite.hpp"
#include "par/pool.hpp"

namespace gcg {
namespace {

par::ParOptions opts_with(unsigned threads, std::uint64_t seed = 1) {
  par::ParOptions o;
  o.threads = threads;
  o.seed = seed;
  return o;
}

// --- determinism ------------------------------------------------------------

TEST(ParDeterminismTest, OneThreadSpeculativeEqualsSequentialGreedy) {
  // On one thread the speculative pass sees every earlier assignment, so
  // the whole run degenerates to sequential first-fit in natural order.
  const SuiteOptions sopts{.scale = 0.05, .seed = 3};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    const SeqColoring seq = greedy_color(entry.graph, GreedyOrder::kNatural);
    const par::ParRun run = par::run_par_coloring(
        entry.graph, par::ParAlgorithm::kSpeculative, opts_with(1));
    EXPECT_EQ(run.colors, seq.colors) << entry.name;
    EXPECT_EQ(run.num_colors, seq.num_colors) << entry.name;
  }
}

TEST(ParDeterminismTest, JplNaturalOrderEqualsSequentialGreedyAtAnyThreads) {
  // The classic Jones–Plassmann property: under natural-order priorities
  // a vertex commits only after all lower-id neighbours, so the coloring
  // equals sequential first-fit greedy regardless of the schedule.
  const SuiteOptions sopts{.scale = 0.05, .seed = 2};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    const SeqColoring seq = greedy_color(entry.graph, GreedyOrder::kNatural);
    for (unsigned threads : {1u, 4u}) {
      par::ParOptions o = opts_with(threads);
      o.priority = PriorityMode::kNaturalOrder;
      const par::ParRun run =
          par::run_par_coloring(entry.graph, par::ParAlgorithm::kJpl, o);
      EXPECT_EQ(run.colors, seq.colors) << entry.name << " @" << threads;
    }
  }
}

/// Sequential first-fit in decreasing (priority, id) order, plus the
/// longest chain of higher-priority neighbours (the JP round count).
struct PriorityGreedy {
  std::vector<color_t> colors;
  unsigned depth = 0;
};

PriorityGreedy greedy_in_priority_order(const Csr& g, PriorityMode mode,
                                        std::uint64_t seed) {
  const std::vector<std::uint32_t> prio = make_priorities(g, mode, seed);
  std::vector<vid_t> order(g.num_vertices());
  std::iota(order.begin(), order.end(), vid_t{0});
  std::sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    return priority_less(prio[b], b, prio[a], a);
  });
  PriorityGreedy out;
  out.colors.assign(g.num_vertices(), kUncolored);
  std::vector<unsigned> level(g.num_vertices(), 0);
  for (vid_t v : order) {
    std::vector<bool> used(g.degree(v) + 1, false);
    unsigned lv = 0;
    for (vid_t u : g.neighbors(v)) {
      if (out.colors[u] == kUncolored) continue;  // lower priority: later
      lv = std::max(lv, level[u]);
      if (static_cast<std::size_t>(out.colors[u]) < used.size()) {
        used[static_cast<std::size_t>(out.colors[u])] = true;
      }
    }
    color_t c = 0;
    while (used[static_cast<std::size_t>(c)]) ++c;
    out.colors[v] = c;
    level[v] = lv + 1;
    out.depth = std::max(out.depth, level[v]);
  }
  return out;
}

TEST(ParDeterminismTest, JplEqualsGreedyInPriorityOrder) {
  // Jones–Plassmann under any strict priority order is sequential
  // first-fit in decreasing priority, and its round count is the longest
  // priority chain — at every thread count.
  const SuiteOptions sopts{.scale = 0.05, .seed = 4};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    for (PriorityMode mode :
         {PriorityMode::kRandom, PriorityMode::kDegreeBiased}) {
      const PriorityGreedy ref = greedy_in_priority_order(entry.graph, mode, 9);
      for (unsigned threads : {1u, 2u, 4u}) {
        par::ParOptions o = opts_with(threads, 9);
        o.priority = mode;
        const par::ParRun run =
            par::run_par_coloring(entry.graph, par::ParAlgorithm::kJpl, o);
        EXPECT_EQ(run.colors, ref.colors)
            << entry.name << "/" << priority_mode_name(mode) << " @"
            << threads;
        EXPECT_EQ(run.iterations, ref.depth)
            << entry.name << "/" << priority_mode_name(mode) << " @"
            << threads;
      }
    }
  }
}

TEST(ParDeterminismTest, FixedSeedReproducesAcrossRuns) {
  const Csr g = make_barabasi_albert(2000, 4, 17);
  for (par::ParAlgorithm algo : par::all_par_algorithms()) {
    const par::ParRun a = par::run_par_coloring(g, algo, opts_with(3, 42));
    const par::ParRun b = par::run_par_coloring(g, algo, opts_with(3, 42));
    if (algo == par::ParAlgorithm::kSpeculative) {
      // Speculation races are benign but timing-dependent; only the
      // validity is stable. Determinism holds on one thread:
      const par::ParRun c = par::run_par_coloring(g, algo, opts_with(1, 42));
      const par::ParRun d = par::run_par_coloring(g, algo, opts_with(1, 42));
      EXPECT_EQ(c.colors, d.colors);
    } else {
      EXPECT_EQ(a.colors, b.colors) << par_algorithm_name(algo);
      EXPECT_EQ(a.iterations, b.iterations) << par_algorithm_name(algo);
    }
  }
}

TEST(ParDeterminismTest, JplAndStealAreThreadCountInvariant) {
  // Phase barriers (steal) and the priority DAG (jpl) make the colors
  // independent of how work is scheduled, so of the thread count too.
  const Csr g = make_barabasi_albert(3000, 5, 7);
  for (par::ParAlgorithm algo :
       {par::ParAlgorithm::kJpl, par::ParAlgorithm::kSteal}) {
    const par::ParRun one = par::run_par_coloring(g, algo, opts_with(1, 5));
    const par::ParRun four = par::run_par_coloring(g, algo, opts_with(4, 5));
    EXPECT_EQ(one.colors, four.colors) << par_algorithm_name(algo);
    EXPECT_EQ(one.iterations, four.iterations) << par_algorithm_name(algo);
  }
}

// --- parity over the generator suite ----------------------------------------

class ParParityTest : public ::testing::TestWithParam<par::ParAlgorithm> {};

TEST_P(ParParityTest, ValidCompleteColoringOnGeneratorSuite) {
  const SuiteOptions sopts{.scale = 0.05, .seed = 1};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    for (unsigned threads : {1u, 4u}) {
      const par::ParRun run =
          par::run_par_coloring(entry.graph, GetParam(), opts_with(threads));
      EXPECT_TRUE(check::is_valid_coloring(entry.graph, run.colors))
          << entry.name << " @" << threads << ": "
          << check::verify_coloring(entry.graph, run.colors)->to_string();
      EXPECT_EQ(run.num_colors, count_colors(run.colors)) << entry.name;
      EXPECT_GT(run.iterations, 0u) << entry.name;
    }
  }
}

TEST_P(ParParityTest, ValidOnDegenerateShapes) {
  struct Case {
    const char* name;
    Csr graph;
  };
  const std::vector<Case> cases = {{"petersen", make_petersen()},
                                   {"single", make_empty(1)},
                                   {"isolated", make_empty(64)},
                                   {"star", make_star(120)},
                                   {"complete", make_complete(17)},
                                   {"empty", Csr{}}};
  for (const Case& c : cases) {
    const par::ParRun run =
        par::run_par_coloring(c.graph, GetParam(), opts_with(2));
    EXPECT_TRUE(check::is_valid_coloring(c.graph, run.colors)) << c.name;
    EXPECT_EQ(run.colors.size(), c.graph.num_vertices()) << c.name;
  }
}

TEST_P(ParParityTest, FirstFitCommitsStayWithinDegreeBound) {
  // All three algorithms commit first-fit colors, so they stay within the
  // Brooks-style degree+1 bound (and close to the sequential greedy count).
  const SuiteOptions sopts{.scale = 0.05, .seed = 1};
  for (const SuiteEntry& entry : make_suite(sopts)) {
    const par::ParRun run =
        par::run_par_coloring(entry.graph, GetParam(), opts_with(4));
    EXPECT_LE(run.num_colors,
              static_cast<int>(entry.graph.max_degree()) + 1)
        << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllParAlgorithms, ParParityTest,
                         ::testing::ValuesIn(par::all_par_algorithms()),
                         [](const auto& info) {
                           return std::string(par_algorithm_name(info.param));
                         });

// --- cancellation ------------------------------------------------------------

TEST(ParCancelTest, SpeculativeStopsAtARoundBoundary) {
  // Speculative polls should_cancel before each round, never mid-round,
  // so a cancelled run holds the state a round boundary leaves: the
  // conflict pass has already uncolored every loser.
  const Csr g = make_suite_graph("kron-like", {.scale = 0.25, .seed = 1}).graph;
  const auto poll_until = [](int fire_at) {
    par::ParOptions o = opts_with(4);
    // Only worker 0, the calling thread, polls; the counter lives in the
    // closure, so each run starts from zero.
    o.should_cancel = [fire_at, polls = 0]() mutable {
      return ++polls >= fire_at;
    };
    return o;
  };

  // Fired on the first poll: no round runs.
  const par::ParRun none =
      par::run_par_coloring(g, par::ParAlgorithm::kSpeculative, poll_until(1));
  EXPECT_TRUE(none.cancelled);
  EXPECT_EQ(none.iterations, 0u);
  ASSERT_EQ(none.colors.size(), g.num_vertices());
  EXPECT_TRUE(std::all_of(none.colors.begin(), none.colors.end(),
                          [](color_t c) { return c == kUncolored; }));

  // Fired on the second poll: exactly one round ran. If that round left no
  // conflicts there is no second poll and the coloring is complete.
  const par::ParRun one =
      par::run_par_coloring(g, par::ParAlgorithm::kSpeculative, poll_until(2));
  EXPECT_EQ(one.iterations, 1u);
  ASSERT_EQ(one.colors.size(), g.num_vertices());
  if (one.cancelled) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (one.colors[v] == kUncolored) continue;
      for (vid_t u : g.neighbors(v)) {
        ASSERT_NE(one.colors[u], one.colors[v])
            << "monochromatic edge " << v << "-" << u;
      }
    }
  } else {
    EXPECT_TRUE(check::is_valid_coloring(g, one.colors));
  }
}

TEST(ParCancelTest, JplStopsWithAPrefixOfTheFullColoring) {
  // Jpl polls should_cancel once before coloring and then every few
  // hundred vertices. Cancelled on the second poll, it must stop short,
  // and whatever it colored must be final: the full run's colors, on a
  // set closed under higher-priority neighbours.
  const Csr g = make_suite_graph("kron-like", {.scale = 0.25, .seed = 1}).graph;
  const par::ParRun full =
      par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts_with(4));
  par::ParOptions o = opts_with(4);
  int polls = 0;  // only worker 0, the calling thread, polls
  o.should_cancel = [&polls] { return ++polls >= 2; };
  const auto uncolored = [](const par::ParRun& r) {
    return std::count(r.colors.begin(), r.colors.end(), kUncolored);
  };
  // Cancellation races the other workers: a worker 0 descheduled until
  // they have colored everything never polls again, and the run ends
  // complete. Retry until one stops short.
  par::ParRun run;
  for (int attempt = 0; attempt < 20; ++attempt) {
    polls = 0;
    run = par::run_par_coloring(g, par::ParAlgorithm::kJpl, o);
    if (uncolored(run) > 0) break;
  }

  EXPECT_TRUE(run.cancelled);
  ASSERT_EQ(run.colors.size(), g.num_vertices());
  EXPECT_NE(uncolored(run), 0);
  const std::vector<std::uint32_t> prio =
      make_priorities(g, o.priority, o.seed);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (run.colors[v] == kUncolored) continue;
    ASSERT_EQ(run.colors[v], full.colors[v]) << "vertex " << v;
    for (vid_t u : g.neighbors(v)) {
      if (priority_less(prio[v], v, prio[u], u)) {
        ASSERT_NE(run.colors[u], kUncolored)
            << "vertex " << v << " colored before its neighbour " << u;
      }
    }
  }
}

// --- stats plumbing ----------------------------------------------------------

TEST(ParStatsTest, WorkerStatsAndImbalanceArePopulated) {
  const Csr g = make_barabasi_albert(5000, 6, 3);
  par::ThreadPool pool(4);
  const par::ParRun run =
      par::run_par_coloring(pool, g, par::ParAlgorithm::kSteal, opts_with(4));
  ASSERT_EQ(run.workers.size(), 4u);
  EXPECT_EQ(run.threads, 4u);
  EXPECT_GT(run.wall_ms, 0.0);
  std::uint64_t vertices = 0, chunks = 0;
  for (const auto& w : run.workers) {
    vertices += w.vertices;
    chunks += w.chunks;
  }
  EXPECT_GT(chunks, 0u);
  EXPECT_GE(vertices, g.num_vertices());  // every frontier pass counted
  EXPECT_GE(run.imbalance.cu_max_over_mean, 1.0);
  // Aggregate steal stats are the sum of the per-worker views.
  StealStats sum;
  for (const auto& w : run.workers) sum += w.steal;
  EXPECT_EQ(sum.pops, run.steal.pops);
  EXPECT_EQ(sum.steal_hits, run.steal.steal_hits);
  EXPECT_EQ(sum.pops + sum.chunks_stolen > 0, true);
}

TEST(ParStatsTest, PoolReuseAcrossRunsIsClean) {
  const Csr g = make_barabasi_albert(1000, 3, 9);
  par::ThreadPool pool(2);
  for (par::ParAlgorithm algo : par::all_par_algorithms()) {
    const par::ParRun run = par::run_par_coloring(pool, g, algo, opts_with(2));
    EXPECT_TRUE(check::is_valid_coloring(g, run.colors)) << par_algorithm_name(algo);
    EXPECT_EQ(run.threads, 2u);
  }
}

}  // namespace
}  // namespace gcg
