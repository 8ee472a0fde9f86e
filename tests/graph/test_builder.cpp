#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "check/csr.hpp"

namespace gcg {
namespace {

TEST(GraphBuilder, SymmetrizesByDefault) {
  const Csr g = GraphBuilder::from_edges(3, {{0, 1}});
  EXPECT_EQ(g.num_arcs(), 2u);
  EXPECT_EQ(check::validate_csr(g), std::nullopt);
}

TEST(GraphBuilder, DedupsParallelEdges) {
  const Csr g = GraphBuilder::from_edges(2, {{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, RemovesSelfLoops) {
  const Csr g = GraphBuilder::from_edges(2, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(check::validate_csr(g), std::nullopt);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, SortedNeighborsAlways) {
  const Csr g = GraphBuilder::from_edges(5, {{4, 0}, {4, 2}, {4, 1}, {4, 3}});
  const auto nb = g.neighbors(4);
  for (std::size_t i = 1; i < nb.size(); ++i) EXPECT_LT(nb[i - 1], nb[i]);
}

TEST(GraphBuilder, BuildConsumesEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Csr g1 = b.build();
  EXPECT_EQ(g1.num_edges(), 1u);
  const Csr g2 = b.build();  // second build: empty graph, same n
  EXPECT_EQ(g2.num_edges(), 0u);
  EXPECT_EQ(g2.num_vertices(), 3u);
}

TEST(GraphBuilderDeathTest, RejectsOutOfRangeVertex) {
  GraphBuilder b(2);
  EXPECT_DEATH(b.add_edge(0, 2), "precondition");
}

TEST(GraphBuilder, LargeStarDegrees) {
  GraphBuilder b(1001);
  for (vid_t v = 1; v <= 1000; ++v) b.add_edge(0, v);
  const Csr g = b.build();
  EXPECT_EQ(g.degree(0), 1000u);
  for (vid_t v = 1; v <= 1000; ++v) ASSERT_EQ(g.degree(v), 1u);
}

}  // namespace
}  // namespace gcg
