#include "coloring/quality.hpp"

#include <gtest/gtest.h>

#include "coloring/seq_greedy.hpp"
#include "graph/gen/grid.hpp"
#include "graph/gen/special.hpp"

namespace gcg {
namespace {

TEST(Quality, TwoColorPath) {
  const Csr g = make_path(10);
  const auto c = greedy_color(g);
  const QualityReport q = analyze_quality(g, c.colors);
  EXPECT_EQ(q.num_colors, 2);
  ASSERT_EQ(q.class_sizes.size(), 2u);
  EXPECT_EQ(q.class_sizes[0], 5u);
  EXPECT_EQ(q.class_sizes[1], 5u);
  EXPECT_DOUBLE_EQ(q.largest_class_fraction, 0.5);
  EXPECT_DOUBLE_EQ(q.class_size_cv, 0.0);
  EXPECT_DOUBLE_EQ(q.mean_parallelism, 5.0);
}

TEST(Quality, StarIsImbalanced) {
  const Csr g = make_star(99);
  const auto c = greedy_color(g);
  const QualityReport q = analyze_quality(g, c.colors);
  EXPECT_EQ(q.num_colors, 2);
  EXPECT_DOUBLE_EQ(q.largest_class_fraction, 0.99);
  EXPECT_GT(q.class_size_cv, 0.9);
}

TEST(Quality, HandlesSparseColorIds) {
  // Max-min colorings can skip ids; quality must renumber densely.
  const Csr g = make_path(4);
  const std::vector<color_t> colors{0, 6, 0, 7};
  const QualityReport q = analyze_quality(g, colors);
  EXPECT_EQ(q.num_colors, 3);
  EXPECT_EQ(q.class_sizes[0], 2u);
}

TEST(CompactColors, PreservesOrderAndHandlesUncolored) {
  std::vector<color_t> colors{9, kUncolored, 4, 9, 120};
  const int k = compact_colors(colors);
  EXPECT_EQ(k, 3);
  EXPECT_EQ(colors, (std::vector<color_t>{1, kUncolored, 0, 1, 2}));
}

TEST(CountColors, IgnoresUncolored) {
  EXPECT_EQ(count_colors(std::vector<color_t>{kUncolored, kUncolored}), 0);
  EXPECT_EQ(count_colors(std::vector<color_t>{0, 2, 2, kUncolored}), 2);
}

}  // namespace
}  // namespace gcg
