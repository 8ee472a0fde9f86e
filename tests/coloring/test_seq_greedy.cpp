#include "coloring/seq_greedy.hpp"

#include <gtest/gtest.h>

#include "check/coloring.hpp"
#include "graph/gen/grid.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/special.hpp"

namespace gcg {
namespace {

const GreedyOrder kAllOrders[] = {
    GreedyOrder::kNatural, GreedyOrder::kRandom, GreedyOrder::kLargestFirst,
    GreedyOrder::kSmallestLast, GreedyOrder::kIncidence};

class GreedyOrderTest : public ::testing::TestWithParam<GreedyOrder> {};

TEST_P(GreedyOrderTest, ValidOnAssortedGraphs) {
  for (const Csr& g : {make_petersen(), make_grid2d(13, 9),
                       make_barabasi_albert(400, 3, 5), make_complete(17)}) {
    const SeqColoring c = greedy_color(g, GetParam());
    EXPECT_TRUE(check::is_valid_coloring(g, c.colors));
    EXPECT_EQ(c.num_colors, count_colors(c.colors));
    // Greedy never exceeds max_degree + 1 colors.
    EXPECT_LE(c.num_colors, static_cast<int>(g.max_degree()) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, GreedyOrderTest,
                         ::testing::ValuesIn(kAllOrders),
                         [](const auto& param_info) {
                           std::string n = greedy_order_name(param_info.param);
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(SeqGreedy, KnownChromaticNumbers) {
  // Bipartite graphs: exactly 2 colors in any greedy order by id on paths.
  EXPECT_EQ(greedy_color(make_path(50)).num_colors, 2);
  EXPECT_EQ(greedy_color(make_cycle(10)).num_colors, 2);   // even cycle
  EXPECT_EQ(greedy_color(make_cycle(11)).num_colors, 3);   // odd cycle
  EXPECT_EQ(greedy_color(make_complete(7)).num_colors, 7); // K7
  EXPECT_EQ(greedy_color(make_complete_bipartite(4, 6)).num_colors, 2);
  EXPECT_EQ(greedy_color(make_star(20)).num_colors, 2);
  EXPECT_EQ(greedy_color(make_binary_tree(31)).num_colors, 2);
}

TEST(SeqGreedy, PetersenNeedsThree) {
  // chi(Petersen) = 3; natural greedy happens to find it.
  const SeqColoring c = greedy_color(make_petersen());
  EXPECT_TRUE(check::is_valid_coloring(make_petersen(), c.colors));
  EXPECT_EQ(c.num_colors, 3);
}

TEST(SeqGreedy, EmptyAndSingleton) {
  const Csr e = make_empty(3);
  const SeqColoring c = greedy_color(e);
  EXPECT_EQ(c.num_colors, 1);  // all vertices take color 0
  EXPECT_TRUE(check::is_valid_coloring(e, c.colors));
  const Csr one = make_empty(1);
  EXPECT_EQ(greedy_color(one).num_colors, 1);
}

TEST(SeqGreedy, SmallestLastBoundedByDegeneracyPlusOne) {
  for (const Csr& g :
       {make_barabasi_albert(500, 4, 9), make_grid2d(20, 20), make_petersen()}) {
    const vid_t d = degeneracy(g);
    const SeqColoring c = greedy_color(g, GreedyOrder::kSmallestLast);
    EXPECT_LE(c.num_colors, static_cast<int>(d) + 1);
  }
}

TEST(SeqGreedy, DegeneracyKnownValues) {
  EXPECT_EQ(degeneracy(make_path(10)), 1u);
  EXPECT_EQ(degeneracy(make_cycle(10)), 2u);
  EXPECT_EQ(degeneracy(make_complete(6)), 5u);
  EXPECT_EQ(degeneracy(make_binary_tree(31)), 1u);
  EXPECT_EQ(degeneracy(make_star(9)), 1u);
  // BA with m=3: every suffix vertex has 3 seed edges -> degeneracy >= 3.
  EXPECT_GE(degeneracy(make_barabasi_albert(100, 3, 1)), 3u);
}

TEST(SeqGreedy, RandomOrderSeedDeterminism) {
  const Csr g = make_barabasi_albert(200, 3, 2);
  const auto a = greedy_color(g, GreedyOrder::kRandom, 5);
  const auto b = greedy_color(g, GreedyOrder::kRandom, 5);
  EXPECT_EQ(a.colors, b.colors);
}

TEST(SeqGreedy, SmallestLastBeatsNaturalOnSkewedGraph) {
  // Not guaranteed in general, but on BA graphs smallest-last should not
  // be worse (it is the classic quality ordering).
  const Csr g = make_barabasi_albert(2000, 5, 3);
  const int natural = greedy_color(g, GreedyOrder::kNatural).num_colors;
  const int sl = greedy_color(g, GreedyOrder::kSmallestLast).num_colors;
  EXPECT_LE(sl, natural);
}

}  // namespace
}  // namespace gcg
