// par::repair_subset — the speculative conflict-repair primitive the
// shard worker and coordinator drive. Key properties: only subset
// vertices move, the result is valid whenever the rounds don't cap out,
// and the outcome is a pure function of (graph, colors, subset, seed).
#include "par/repair.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "check/coloring.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/special.hpp"
#include "par/runner.hpp"

namespace gcg::par {
namespace {

// A valid coloring with every `stride`-th positive-degree vertex
// corrupted to its first neighbor's color. Returns the corrupted ids.
std::vector<vid_t> plant_conflicts(const Csr& g, std::vector<color_t>& colors,
                                   vid_t stride) {
  std::vector<vid_t> planted;
  for (vid_t v = 0; v < g.num_vertices(); v += stride) {
    if (g.degree(v) == 0) continue;
    colors[v] = colors[g.neighbors(v)[0]];
    planted.push_back(v);
  }
  return planted;
}

std::vector<color_t> valid_coloring(const Csr& g) {
  ParOptions opts;
  opts.threads = 2;
  return run_par_coloring(g, ParAlgorithm::kJpl, opts).colors;
}

TEST(RepairSubset, FixesPlantedConflicts) {
  const Csr g = make_rmat(8, 8, {}, 5);
  std::vector<color_t> colors = valid_coloring(g);
  const std::vector<color_t> before = colors;
  const std::vector<vid_t> planted = plant_conflicts(g, colors, 7);
  ASSERT_FALSE(planted.empty());

  const RepairRun run = repair_subset(g, colors, planted);
  EXPECT_FALSE(check::verify_coloring(g, colors).has_value());
  EXPECT_EQ(run.remaining_conflicts, 0u);
  EXPECT_GT(run.rounds, 0u);
  EXPECT_GT(run.recolored, 0u);
  EXPECT_LE(run.recolored, planted.size());

  // Non-subset vertices are frozen, conflicted or not.
  std::vector<bool> in_subset(g.num_vertices(), false);
  for (const vid_t v : planted) in_subset[v] = true;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (!in_subset[v]) {
      EXPECT_EQ(colors[v], before[v]) << "vertex " << v;
    }
  }
}

TEST(RepairSubset, ColorsUncoloredSubsetFromScratch) {
  const Csr g = make_cycle(10);
  std::vector<color_t> colors(10, kUncolored);
  std::vector<vid_t> all(10);
  for (vid_t v = 0; v < 10; ++v) all[v] = v;

  const RepairRun run = repair_subset(g, colors, all);
  EXPECT_FALSE(check::verify_coloring(g, colors).has_value());
  for (const color_t c : colors) EXPECT_NE(c, kUncolored);
  EXPECT_EQ(run.recolored, 10u);
  EXPECT_EQ(run.remaining_conflicts, 0u);
}

TEST(RepairSubset, EmptySubsetIsANoOp) {
  const Csr g = make_cycle(6);
  std::vector<color_t> colors(6, 0);  // wildly invalid, but frozen
  const RepairRun run = repair_subset(g, colors, {});
  EXPECT_EQ(run.rounds, 0u);
  EXPECT_EQ(run.recolored, 0u);
  for (const color_t c : colors) EXPECT_EQ(c, 0);
}

TEST(RepairSubset, SeedChangesTheOutcomeDeterministically) {
  const Csr g = make_rmat(7, 8, {}, 3);
  std::vector<color_t> base = valid_coloring(g);
  const std::vector<vid_t> planted = plant_conflicts(g, base, 2);

  auto repaired = [&](std::uint64_t seed) {
    std::vector<color_t> colors = base;
    RepairOptions opts;
    opts.seed = seed;
    repair_subset(g, colors, planted, opts);
    EXPECT_FALSE(check::verify_coloring(g, colors).has_value());
    return colors;
  };
  EXPECT_EQ(repaired(1), repaired(1));  // same seed: bit-identical
  // Different seeds order the winners differently; both stay valid
  // (checked inside), equality is not required and typically fails.
  (void)repaired(2);
}

TEST(RepairSubset, RoundCapReportsLeftovers) {
  // K_8, all uncolored, everything in the subset: each round colors
  // exactly one winner (any two subset vertices are adjacent), so a
  // 2-round cap must leave 6 conflicted vertices behind.
  const Csr g = make_complete(8);
  std::vector<color_t> colors(8, kUncolored);
  std::vector<vid_t> all(8);
  for (vid_t v = 0; v < 8; ++v) all[v] = v;

  RepairOptions opts;
  opts.max_rounds = 2;
  const RepairRun run = repair_subset(g, colors, all, opts);
  EXPECT_EQ(run.rounds, 2u);
  EXPECT_EQ(run.recolored, 2u);
  EXPECT_EQ(run.remaining_conflicts, 6u);
  // And with the cap lifted the same start converges to a valid K_8.
  std::vector<color_t> fresh(8, kUncolored);
  const RepairRun full = repair_subset(g, fresh, all);
  EXPECT_FALSE(check::verify_coloring(g, fresh).has_value());
  EXPECT_EQ(full.rounds, 8u);
}

TEST(RepairSubset, DuplicateSubsetEntriesTolerated) {
  const Csr g = make_cycle(5);
  std::vector<color_t> colors(5, kUncolored);
  const std::vector<vid_t> dups = {0, 1, 2, 3, 4, 0, 2, 4};
  const RepairRun run = repair_subset(g, colors, dups);
  EXPECT_FALSE(check::verify_coloring(g, colors).has_value());
  EXPECT_EQ(run.recolored, 5u);
}

}  // namespace
}  // namespace gcg::par
