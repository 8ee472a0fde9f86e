#include "graph/gen/suite.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "check/csr.hpp"
#include "graph/stats.hpp"

namespace gcg {
namespace {

constexpr double kTestScale = 0.05;  // keep suite tests quick

TEST(Suite, AllNamesBuildCleanGraphs) {
  SuiteOptions opts;
  opts.scale = kTestScale;
  for (const auto& name : suite_names()) {
    const SuiteEntry e = make_suite_graph(name, opts);
    EXPECT_EQ(e.name, name);
    EXPECT_FALSE(e.family.empty());
    EXPECT_FALSE(e.stands_for.empty());
    EXPECT_GT(e.graph.num_vertices(), 0u) << name;
    EXPECT_EQ(check::validate_csr(e.graph), std::nullopt) << name;
  }
}

TEST(Suite, UnknownNameThrows) {
  EXPECT_THROW(make_suite_graph("no-such-graph"), std::invalid_argument);
}

TEST(Suite, MakeSuiteReturnsCanonicalOrder) {
  SuiteOptions opts;
  opts.scale = kTestScale;
  const auto suite = make_suite(opts);
  const auto names = suite_names();
  ASSERT_EQ(suite.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(suite[i].name, names[i]);
  }
}

TEST(Suite, SkewOrderingMatchesDesign) {
  // The suite spans regular -> skewed: grids must have (near-)zero degree
  // CV, kron/citation must be strongly skewed.
  SuiteOptions opts;
  opts.scale = kTestScale;
  const auto ecology = compute_stats(make_suite_graph("ecology-like", opts).graph);
  const auto kron = compute_stats(make_suite_graph("kron-like", opts).graph);
  const auto citation = compute_stats(make_suite_graph("citation-like", opts).graph);
  EXPECT_LT(ecology.degree_cv, 0.3);
  EXPECT_GT(kron.degree_cv, 1.0);
  EXPECT_GT(citation.degree_cv, 1.0);
}

TEST(Suite, ScaleGrowsTheGraphs) {
  SuiteOptions small;
  small.scale = kTestScale;
  SuiteOptions bigger;
  bigger.scale = kTestScale * 4;
  const auto a = make_suite_graph("er-like", small);
  const auto b = make_suite_graph("er-like", bigger);
  EXPECT_GT(b.graph.num_vertices(), a.graph.num_vertices() * 3);
}

TEST(Suite, DeterministicForSeedAndScale) {
  SuiteOptions opts;
  opts.scale = kTestScale;
  opts.seed = 17;
  const auto a = make_suite_graph("kron-like", opts);
  const auto b = make_suite_graph("kron-like", opts);
  EXPECT_TRUE(std::equal(a.graph.col_indices().begin(),
                         a.graph.col_indices().end(),
                         b.graph.col_indices().begin(),
                         b.graph.col_indices().end()));
}

}  // namespace
}  // namespace gcg
