// Edge-case coverage for the shared coloring helpers in common.cpp:
// all-uncolored input, single-vertex domains, and gapped color domains
// (max-min runs legitimately leave gaps).
#include "coloring/common.hpp"

#include <gtest/gtest.h>

namespace gcg {
namespace {

TEST(CountColorsTest, EmptyAndAllUncolored) {
  EXPECT_EQ(count_colors({}), 0);
  const std::vector<color_t> all_unc(7, kUncolored);
  EXPECT_EQ(count_colors(all_unc), 0);
}

TEST(CountColorsTest, SingleVertex) {
  const std::vector<color_t> one = {0};
  EXPECT_EQ(count_colors(one), 1);
  const std::vector<color_t> one_unc = {kUncolored};
  EXPECT_EQ(count_colors(one_unc), 0);
}

TEST(CountColorsTest, GappedDomainCountsDistinctOnly) {
  const std::vector<color_t> gapped = {0, 4, 4, 9, 0, 100};
  EXPECT_EQ(count_colors(gapped), 4);  // {0, 4, 9, 100}
}

TEST(CountColorsTest, IgnoresUncoloredAmongColored) {
  const std::vector<color_t> mixed = {2, kUncolored, 2, kUncolored, 5};
  EXPECT_EQ(count_colors(mixed), 2);
}

TEST(CompactColorsTest, AllUncoloredIsAFixpoint) {
  std::vector<color_t> colors(5, kUncolored);
  EXPECT_EQ(compact_colors(colors), 0);
  for (color_t c : colors) EXPECT_EQ(c, kUncolored);
}

TEST(CompactColorsTest, EmptyInput) {
  std::vector<color_t> colors;
  EXPECT_EQ(compact_colors(colors), 0);
}

TEST(CompactColorsTest, SingleVertexMapsToZero) {
  std::vector<color_t> colors = {41};
  EXPECT_EQ(compact_colors(colors), 1);
  EXPECT_EQ(colors[0], 0);
}

TEST(CompactColorsTest, GappedDomainDensifiesPreservingOrder) {
  std::vector<color_t> colors = {10, 2, 10, 7, 2};
  EXPECT_EQ(compact_colors(colors), 3);
  // Relative order of the old color values is preserved: 2 < 7 < 10.
  EXPECT_EQ(colors, (std::vector<color_t>{2, 0, 2, 1, 0}));
}

TEST(CompactColorsTest, PreservesUncoloredSlots) {
  std::vector<color_t> colors = {6, kUncolored, 3, kUncolored, 6};
  EXPECT_EQ(compact_colors(colors), 2);
  EXPECT_EQ(colors, (std::vector<color_t>{1, kUncolored, 0, kUncolored, 1}));
}

}  // namespace
}  // namespace gcg
