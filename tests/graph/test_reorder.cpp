#include "graph/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

#include "check/csr.hpp"
#include "graph/builder.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/special.hpp"
#include "graph/stats.hpp"

namespace gcg {
namespace {

/// Check that `h` is exactly `g` relabeled through perm.
void expect_isomorphic_via(const Csr& g, const Csr& h,
                           const std::vector<vid_t>& perm) {
  ASSERT_EQ(g.num_vertices(), h.num_vertices());
  ASSERT_EQ(g.num_arcs(), h.num_arcs());
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    std::set<vid_t> expected;
    for (vid_t v : g.neighbors(u)) expected.insert(perm[v]);
    const auto nb = h.neighbors(perm[u]);
    const std::set<vid_t> actual(nb.begin(), nb.end());
    ASSERT_EQ(expected, actual) << "vertex " << u;
  }
}

TEST(Reorder, NaturalIsIdentity) {
  const Csr g = make_petersen();
  const auto perm = make_order(g, Order::kNatural);
  for (vid_t v = 0; v < 10; ++v) EXPECT_EQ(perm[v], v);
}

class ReorderIsomorphism : public ::testing::TestWithParam<Order> {};

TEST_P(ReorderIsomorphism, PermIsValidAndPreservesStructure) {
  const Csr g = make_barabasi_albert(300, 3, 5);
  const auto perm = make_order(g, GetParam(), 7);
  EXPECT_TRUE(is_permutation(perm, g.num_vertices()));
  const Csr h = apply_order(g, perm);
  expect_isomorphic_via(g, h, perm);
  EXPECT_EQ(check::validate_csr(h), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, ReorderIsomorphism,
    ::testing::Values(Order::kNatural, Order::kRandom, Order::kDegreeDescending,
                      Order::kDegreeAscending, Order::kBfs, Order::kRcm),
    [](const auto& param_info) {
      std::string n = order_name(param_info.param);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Reorder, DegreeDescendingSortsDegrees) {
  const Csr g = make_barabasi_albert(200, 2, 3);
  const Csr h = reorder(g, Order::kDegreeDescending);
  for (vid_t v = 1; v < h.num_vertices(); ++v) {
    ASSERT_GE(h.degree(v - 1), h.degree(v));
  }
}

TEST(Reorder, DegreeAscendingSortsDegrees) {
  const Csr g = make_barabasi_albert(200, 2, 3);
  const Csr h = reorder(g, Order::kDegreeAscending);
  for (vid_t v = 1; v < h.num_vertices(); ++v) {
    ASSERT_LE(h.degree(v - 1), h.degree(v));
  }
}

/// The degree orders' reference: a stable sort of the ids by degree,
/// inverted to perm[old] = new.
std::vector<vid_t> stable_sort_by_degree(const Csr& g, bool desc) {
  std::vector<vid_t> visit(g.num_vertices());
  std::iota(visit.begin(), visit.end(), vid_t{0});
  std::stable_sort(visit.begin(), visit.end(), [&](vid_t a, vid_t b) {
    return desc ? g.degree(a) > g.degree(b) : g.degree(a) < g.degree(b);
  });
  std::vector<vid_t> perm(visit.size());
  for (vid_t k = 0; k < visit.size(); ++k) perm[visit[k]] = k;
  return perm;
}

TEST(Reorder, DegreeOrdersEqualStableSort) {
  // A sparse uniform graph has many isolated vertices and long runs of
  // equal degree, so the tie order is what is under test; the power-law
  // graph adds hubs, and n = 0 and n = 1 the edge cases.
  const Csr sparse = make_erdos_renyi_gnm(600, 400, 9);
  std::size_t isolated = 0;
  for (vid_t v = 0; v < sparse.num_vertices(); ++v) {
    isolated += sparse.degree(v) == 0 ? 1u : 0u;
  }
  ASSERT_GT(isolated, 50u);
  const Csr graphs[] = {sparse, make_rmat(9, 4, {}, 3), make_empty(0),
                        make_empty(1)};
  for (const Csr& g : graphs) {
    EXPECT_EQ(make_order(g, Order::kDegreeDescending),
              stable_sort_by_degree(g, /*desc=*/true))
        << "n = " << g.num_vertices();
    EXPECT_EQ(make_order(g, Order::kDegreeAscending),
              stable_sort_by_degree(g, /*desc=*/false))
        << "n = " << g.num_vertices();
  }
}

TEST(Reorder, RandomIsSeedDeterministic) {
  const Csr g = make_barabasi_albert(100, 2, 1);
  EXPECT_EQ(make_order(g, Order::kRandom, 5), make_order(g, Order::kRandom, 5));
  EXPECT_NE(make_order(g, Order::kRandom, 5), make_order(g, Order::kRandom, 6));
}

TEST(Reorder, BfsVisitsComponentContiguously) {
  // Two disjoint paths: BFS order must not interleave components.
  GraphBuilder b(6);
  b.add_edge(0, 2);
  b.add_edge(2, 4);
  b.add_edge(1, 3);
  b.add_edge(3, 5);
  const Csr g = b.build();
  const auto perm = make_order(g, Order::kBfs);
  // Component of 0 = {0,2,4} must occupy new ids {0,1,2}.
  std::set<vid_t> first_component{perm[0], perm[2], perm[4]};
  EXPECT_EQ(first_component, (std::set<vid_t>{0, 1, 2}));
}

TEST(Reorder, RcmReducesBandwidthOnPath) {
  // A path relabeled randomly has large bandwidth; RCM restores ~1.
  const Csr scrambled = reorder(make_path(64), Order::kRandom, 99);
  auto bandwidth = [](const Csr& g) {
    std::int64_t bw = 0;
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      for (vid_t v : g.neighbors(u)) {
        bw = std::max<std::int64_t>(bw, std::abs(static_cast<std::int64_t>(u) -
                                                 static_cast<std::int64_t>(v)));
      }
    }
    return bw;
  };
  const Csr fixed = reorder(scrambled, Order::kRcm);
  EXPECT_GT(bandwidth(scrambled), 8);
  EXPECT_LE(bandwidth(fixed), 2);
}

TEST(Reorder, IsPermutationRejectsBadInputs) {
  EXPECT_FALSE(is_permutation({0, 0}, 2));    // duplicate
  EXPECT_FALSE(is_permutation({0, 2}, 2));    // out of range
  EXPECT_FALSE(is_permutation({0}, 2));       // wrong size
  EXPECT_TRUE(is_permutation({1, 0}, 2));
}

TEST(Reorder, OrderNamesRoundTrip) {
  for (Order o : {Order::kNatural, Order::kRandom, Order::kDegreeDescending,
                  Order::kDegreeAscending, Order::kBfs, Order::kRcm}) {
    EXPECT_EQ(order_from_name(order_name(o)), o);
  }
  EXPECT_THROW(order_from_name("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace gcg
