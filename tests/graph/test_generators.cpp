#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "check/csr.hpp"
#include "graph/gen/grid.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/smallworld.hpp"
#include "graph/gen/special.hpp"
#include "graph/stats.hpp"
#include "util/rng.hpp"

namespace gcg {
namespace {

void expect_clean(const Csr& g) {
  EXPECT_EQ(check::validate_csr(g), std::nullopt);
}

TEST(Grid2d, SizesAndDegrees) {
  const Csr g = make_grid2d(5, 4);
  EXPECT_EQ(g.num_vertices(), 20u);
  // Edge count: 4*(5-1) horizontal rows... (w-1)*h + w*(h-1).
  EXPECT_EQ(g.num_edges(), 4u * 4 + 5u * 3);
  expect_clean(g);
  EXPECT_EQ(g.degree(0), 2u);       // corner
  EXPECT_EQ(g.degree(2), 3u);       // top edge
  EXPECT_EQ(g.degree(1 * 5 + 2), 4u);  // interior
  EXPECT_EQ(g.max_degree(), 4u);
}

TEST(Grid2d, EightConnectedDegrees) {
  const Csr g = make_grid2d(4, 4, /*eight_connected=*/true);
  expect_clean(g);
  EXPECT_EQ(g.max_degree(), 8u);
  EXPECT_EQ(g.degree(0), 3u);  // corner: right, down, diag
}

TEST(Grid2d, SingleRowIsPath) {
  const Csr g = make_grid2d(6, 1);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Grid3d, SizesAndDegrees) {
  const Csr g = make_grid3d(3, 3, 3);
  EXPECT_EQ(g.num_vertices(), 27u);
  EXPECT_EQ(g.num_edges(), 3u * (2 * 3 * 3));  // 3 axes, 2*9 per axis
  expect_clean(g);
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(13), 6u);  // center
}

TEST(ErdosRenyiGnm, ExactEdgeCount) {
  const Csr g = make_erdos_renyi_gnm(100, 500, 7);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 500u);
  expect_clean(g);
}

TEST(ErdosRenyiGnm, DeterministicInSeed) {
  const Csr a = make_erdos_renyi_gnm(50, 100, 3);
  const Csr b = make_erdos_renyi_gnm(50, 100, 3);
  EXPECT_TRUE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                         b.col_indices().begin(), b.col_indices().end()));
  const Csr c = make_erdos_renyi_gnm(50, 100, 4);
  EXPECT_FALSE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                          c.col_indices().begin(), c.col_indices().end()));
}

TEST(ErdosRenyiGnm, CompleteGraphLimit) {
  const Csr g = make_erdos_renyi_gnm(10, 45, 1);
  EXPECT_EQ(g.num_edges(), 45u);
  EXPECT_EQ(g.max_degree(), 9u);
}

TEST(RandomGeometric, DegreeMatchesDensity) {
  const vid_t n = 4000;
  const double target_degree = 10.0;
  const double radius = std::sqrt(target_degree / (3.14159265 * n));
  const Csr g = make_random_geometric(n, radius, 5);
  expect_clean(g);
  EXPECT_GT(g.avg_degree(), target_degree * 0.8);
  EXPECT_LT(g.avg_degree(), target_degree * 1.2);
}

TEST(RandomGeometric, MatchesBruteForceSmall) {
  // Grid bucketing must agree with the O(n^2) definition.
  const vid_t n = 200;
  const double radius = 0.13;
  const Csr g = make_random_geometric(n, radius, 9);
  // Brute-force recompute point set with the same RNG stream.
  Xoshiro256ss rng(9);
  std::vector<double> xs(n), ys(n);
  for (vid_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform();
    ys[i] = rng.uniform();
  }
  eid_t expected = 0;
  for (vid_t i = 0; i < n; ++i) {
    for (vid_t j = i + 1; j < n; ++j) {
      const double dx = xs[i] - xs[j], dy = ys[i] - ys[j];
      if (dx * dx + dy * dy <= radius * radius) ++expected;
    }
  }
  EXPECT_EQ(g.num_edges(), expected);
}

TEST(BarabasiAlbert, SizeAndMinDegree) {
  const vid_t n = 2000;
  const vid_t m = 4;
  const Csr g = make_barabasi_albert(n, m, 13);
  EXPECT_EQ(g.num_vertices(), n);
  expect_clean(g);
  // Every non-seed vertex attaches m edges; dedup can only merge pairs
  // between seed vertices, so min degree >= m.
  for (vid_t v = 0; v < n; ++v) ASSERT_GE(g.degree(v), m);
}

TEST(BarabasiAlbert, ProducesHubs) {
  const Csr g = make_barabasi_albert(5000, 4, 17);
  const GraphStats s = compute_stats(g);
  EXPECT_GT(s.max_degree, 10 * s.avg_degree);  // heavy tail
  EXPECT_GT(s.degree_cv, 1.0);
}

TEST(Rmat, SizeAndSkew) {
  const Csr g = make_rmat(12, 8, {}, 19);
  EXPECT_EQ(g.num_vertices(), 1u << 12);
  expect_clean(g);
  const GraphStats s = compute_stats(g);
  EXPECT_GT(s.degree_cv, 1.0);  // kron-like skew
  // Dedup/self-loops remove some of the 8*2^12 sampled edges.
  EXPECT_GT(g.num_edges(), (1u << 12) * 4u);
}

TEST(Rmat, ScrambleChangesIdsNotShape) {
  RmatParams noscramble;
  noscramble.scramble_ids = false;
  const Csr a = make_rmat(10, 4, noscramble, 23);
  const Csr b = make_rmat(10, 4, {}, 23);
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  // Degree *distribution* must match exactly (scramble is a relabeling).
  std::vector<vid_t> da, db;
  for (vid_t v = 0; v < a.num_vertices(); ++v) {
    da.push_back(a.degree(v));
    db.push_back(b.degree(v));
  }
  std::sort(da.begin(), da.end());
  std::sort(db.begin(), db.end());
  EXPECT_EQ(da, db);
}

TEST(WattsStrogatz, RingWhenBetaZero) {
  const Csr g = make_watts_strogatz(20, 4, 0.0, 1);
  expect_clean(g);
  for (vid_t v = 0; v < 20; ++v) ASSERT_EQ(g.degree(v), 4u);
}

TEST(WattsStrogatz, RewiringPreservesEdgeBudget) {
  const Csr g = make_watts_strogatz(1000, 6, 0.2, 3);
  expect_clean(g);
  // Rewiring can create duplicates that dedup removes; stay close.
  EXPECT_GT(g.num_edges(), 1000u * 3 * 95 / 100);
  EXPECT_LE(g.num_edges(), 1000u * 3);
}

// --- special graphs ------------------------------------------------------

TEST(Special, PathCycleStar) {
  EXPECT_EQ(make_path(10).num_edges(), 9u);
  EXPECT_EQ(make_cycle(10).num_edges(), 10u);
  const Csr star = make_star(7);
  EXPECT_EQ(star.degree(0), 7u);
  EXPECT_EQ(star.num_edges(), 7u);
}

TEST(Special, CompleteAndBipartite) {
  const Csr k5 = make_complete(5);
  EXPECT_EQ(k5.num_edges(), 10u);
  EXPECT_EQ(k5.max_degree(), 4u);
  const Csr k23 = make_complete_bipartite(2, 3);
  EXPECT_EQ(k23.num_edges(), 6u);
  EXPECT_EQ(k23.degree(0), 3u);
  EXPECT_EQ(k23.degree(2), 2u);
}

TEST(Special, BinaryTreeAndEmpty) {
  const Csr t = make_binary_tree(7);
  EXPECT_EQ(t.num_edges(), 6u);
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 3u);
  const Csr e = make_empty(5);
  EXPECT_EQ(e.num_vertices(), 5u);
  EXPECT_EQ(e.num_arcs(), 0u);
}

TEST(Special, PetersenInvariants) {
  const Csr p = make_petersen();
  EXPECT_EQ(p.num_vertices(), 10u);
  EXPECT_EQ(p.num_edges(), 15u);
  for (vid_t v = 0; v < 10; ++v) ASSERT_EQ(p.degree(v), 3u);  // 3-regular
  expect_clean(p);
}

// --- parameterized determinism sweep --------------------------------------

class GeneratorDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorDeterminism, AllGeneratorsStableAcrossCalls) {
  const std::uint64_t seed = GetParam();
  auto same = [](const Csr& a, const Csr& b) {
    return a.num_vertices() == b.num_vertices() &&
           std::equal(a.row_offsets().begin(), a.row_offsets().end(),
                      b.row_offsets().begin(), b.row_offsets().end()) &&
           std::equal(a.col_indices().begin(), a.col_indices().end(),
                      b.col_indices().begin(), b.col_indices().end());
  };
  EXPECT_TRUE(same(make_erdos_renyi_gnm(64, 128, seed),
                   make_erdos_renyi_gnm(64, 128, seed)));
  EXPECT_TRUE(same(make_barabasi_albert(128, 3, seed),
                   make_barabasi_albert(128, 3, seed)));
  EXPECT_TRUE(same(make_rmat(7, 4, {}, seed), make_rmat(7, 4, {}, seed)));
  EXPECT_TRUE(same(make_watts_strogatz(64, 4, 0.3, seed),
                   make_watts_strogatz(64, 4, 0.3, seed)));
  EXPECT_TRUE(same(make_random_geometric(128, 0.15, seed),
                   make_random_geometric(128, 0.15, seed)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDeterminism,
                         ::testing::Values(1, 2, 42, 1234567, 0xdeadbeef));

}  // namespace
}  // namespace gcg
