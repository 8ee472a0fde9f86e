// Table-driven malformed-CSR tests: every defect class the validator
// knows about, fed as raw arrays (the Csr constructor would reject some
// of these shapes outright, which is exactly why validate_csr accepts
// spans).
#include "check/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "graph/gen/special.hpp"
#include "graph/gen/random.hpp"
#include "graph/gen/suite.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg {
namespace {

using check::CsrDefect;
using check::CsrIssue;
using check::validate_csr;

struct MalformedCase {
  const char* name;
  std::vector<eid_t> rows;
  std::vector<vid_t> cols;
  CsrDefect expect;
};

TEST(ValidateCsr, MalformedTable) {
  const MalformedCase cases[] = {
      {"empty_offsets", {}, {}, CsrDefect::kEmptyOffsets},
      {"bad_first_offset", {1, 2}, {0, 0}, CsrDefect::kBadFirstOffset},
      {"non_monotone", {0, 3, 2, 4}, {1, 2, 0, 0}, CsrDefect::kNonMonotoneOffsets},
      {"arc_count_mismatch", {0, 1, 2}, {1, 0, 0}, CsrDefect::kArcCountMismatch},
      {"out_of_range", {0, 1, 2}, {1, 7}, CsrDefect::kColumnOutOfRange},
      // vertex 0 lists {2, 1}: descending, no self loop involved
      {"unsorted", {0, 2, 2, 2}, {2, 1}, CsrDefect::kUnsortedNeighbors},
      {"unsorted_row2", {0, 1, 3, 4}, {1, 2, 0, 1}, CsrDefect::kUnsortedNeighbors},
      {"duplicate", {0, 2, 4}, {1, 1, 0, 0}, CsrDefect::kDuplicateNeighbor},
      {"self_loop", {0, 1, 2}, {0, 1}, CsrDefect::kSelfLoop},
      {"lone_self_loop", {0, 1}, {0}, CsrDefect::kSelfLoop},
      // 0->1 present, 1->0 missing (1 lists only itself? no: 1 lists 2)
      {"asymmetric", {0, 1, 2, 3}, {1, 2, 1}, CsrDefect::kAsymmetricEdge},
      {"one_way_edge", {0, 1, 1}, {1}, CsrDefect::kAsymmetricEdge},
  };
  for (const auto& tc : cases) {
    const auto issue = validate_csr(tc.rows, tc.cols);
    ASSERT_TRUE(issue.has_value()) << tc.name;
    EXPECT_EQ(issue->defect, tc.expect)
        << tc.name << ": " << issue->to_string();
    EXPECT_FALSE(issue->to_string().empty()) << tc.name;
  }
}

TEST(ValidateCsr, UnsortedReportsRowAndPosition) {
  // Row 1's adjacency list {2, 0} descends at flat position 2; the row
  // sweep names it before any symmetry check runs.
  const std::vector<eid_t> rows{0, 1, 3, 4};
  const std::vector<vid_t> cols{1, 2, 0, 1};
  const auto issue = validate_csr(rows, cols);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->defect, CsrDefect::kUnsortedNeighbors);
  EXPECT_EQ(issue->row, 1u);
  EXPECT_EQ(issue->index, 2u);
}

TEST(ValidateCsr, AcceptsWellFormedGraphs) {
  EXPECT_FALSE(validate_csr(make_cycle(5)).has_value());
  EXPECT_FALSE(validate_csr(make_star(100)).has_value());
  EXPECT_FALSE(validate_csr(make_empty(3)).has_value());
  EXPECT_FALSE(validate_csr(make_erdos_renyi_gnm(500, 2000, 7)).has_value());
}

TEST(ValidateCsr, EmptyGraphSingleOffsetIsValid) {
  const std::vector<eid_t> rows{0};
  EXPECT_FALSE(validate_csr(rows, {}).has_value());
}

// ---- Oracle: the linear sweep against the reverse-row search ----------

/// The validator as it was before the linear sweep: the same
/// structural sweep, then one binary search per arc in the reverse row.
/// Every CsrIssue the production validator returns must equal this one
/// field for field.
std::optional<CsrIssue> reference_validate(std::span<const eid_t> rows,
                                           std::span<const vid_t> cols) {
  if (rows.empty()) return CsrIssue{CsrDefect::kEmptyOffsets, 0, 0, 0};
  if (rows.front() != 0) {
    return CsrIssue{CsrDefect::kBadFirstOffset, 0, rows.front(), 0};
  }
  const vid_t n = narrow<vid_t>(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] < rows[i - 1]) {
      return CsrIssue{CsrDefect::kNonMonotoneOffsets, narrow<vid_t>(i - 1),
                      rows[i], i};
    }
  }
  if (rows.back() != cols.size()) {
    return CsrIssue{CsrDefect::kArcCountMismatch, n, rows.back(), cols.size()};
  }
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      const std::size_t at = narrow<std::size_t>(k);
      if (v >= n) return CsrIssue{CsrDefect::kColumnOutOfRange, u, v, at};
      if (v == u) return CsrIssue{CsrDefect::kSelfLoop, u, v, at};
      if (k > rows[u]) {
        const vid_t prev = cols[k - 1];
        if (v == prev) {
          return CsrIssue{CsrDefect::kDuplicateNeighbor, u, v, at};
        }
        if (v < prev) {
          return CsrIssue{CsrDefect::kUnsortedNeighbors, u, v, at};
        }
      }
    }
  }
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      const vid_t* first = cols.data() + rows[v];
      const vid_t* last = cols.data() + rows[v + 1];
      if (!std::binary_search(first, last, u)) {
        return CsrIssue{CsrDefect::kAsymmetricEdge, u, v,
                        narrow<std::size_t>(k)};
      }
    }
  }
  return std::nullopt;
}

std::string describe(const std::optional<CsrIssue>& issue) {
  if (!issue) return "ok";
  std::ostringstream os;
  os << check::csr_defect_name(issue->defect) << " row=" << issue->row
     << " value=" << issue->value << " index=" << issue->index;
  return os.str();
}

/// Raw CSR arrays a corruption can edit freely.
struct RawCsr {
  std::vector<eid_t> rows;
  std::vector<vid_t> cols;

  explicit RawCsr(const Csr& g)
      : rows(g.row_offsets().begin(), g.row_offsets().end()),
        cols(g.col_indices().begin(), g.col_indices().end()) {}

  vid_t n() const { return narrow<vid_t>(rows.size() - 1); }
  eid_t begin(vid_t u) const { return rows[u]; }
  eid_t end(vid_t u) const { return rows[u + 1]; }

  void insert(vid_t u, eid_t at, vid_t v) {
    cols.insert(cols.begin() + narrow<std::ptrdiff_t>(at), v);
    for (std::size_t w = std::size_t{u} + 1; w < rows.size(); ++w) ++rows[w];
  }
  void erase(vid_t u, eid_t at) {
    cols.erase(cols.begin() + narrow<std::ptrdiff_t>(at));
    for (std::size_t w = std::size_t{u} + 1; w < rows.size(); ++w) --rows[w];
  }
  /// Inserts v into u's row at its ascending position.
  void insert_sorted(vid_t u, vid_t v) {
    const auto first = cols.begin() + narrow<std::ptrdiff_t>(begin(u));
    const auto last = cols.begin() + narrow<std::ptrdiff_t>(end(u));
    insert(u, narrow<eid_t>(std::lower_bound(first, last, v) - cols.begin()),
           v);
  }
  bool has_arc(vid_t u, vid_t v) const {
    const auto first = cols.begin() + narrow<std::ptrdiff_t>(begin(u));
    const auto last = cols.begin() + narrow<std::ptrdiff_t>(end(u));
    return std::binary_search(first, last, v);
  }
};

enum class Corruption {
  kNone,
  kDropReverseArc,
  kAddOneWayArc,
  kAddSelfLoop,
  kDuplicateColumn,
  kSwapColumns,
  kShiftOffset,
};

constexpr Corruption kCorruptions[] = {
    Corruption::kNone,          Corruption::kDropReverseArc,
    Corruption::kAddOneWayArc,  Corruption::kAddSelfLoop,
    Corruption::kDuplicateColumn, Corruption::kSwapColumns,
    Corruption::kShiftOffset,
};

vid_t random_vertex(Xoshiro256ss& rng, vid_t n) {
  return narrow<vid_t>(rng.bounded(n));
}

/// A random vertex with at least `min_degree` neighbours (the graph must
/// have one).
vid_t vertex_with_degree(Xoshiro256ss& rng, const RawCsr& g,
                         eid_t min_degree) {
  while (true) {
    const vid_t u = random_vertex(rng, g.n());
    if (g.end(u) - g.begin(u) >= min_degree) return u;
  }
}

eid_t random_slot(Xoshiro256ss& rng, const RawCsr& g, vid_t u) {
  return g.begin(u) + rng.bounded(g.end(u) - g.begin(u));
}

void corrupt(RawCsr& g, Corruption kind, Xoshiro256ss& rng) {
  switch (kind) {
    case Corruption::kNone:
      return;
    case Corruption::kDropReverseArc: {
      // u->v stays, v->u goes: v's row loses the entry u.
      const vid_t u = vertex_with_degree(rng, g, 1);
      const vid_t v = g.cols[random_slot(rng, g, u)];
      const auto first = g.cols.begin() + narrow<std::ptrdiff_t>(g.begin(v));
      const auto last = g.cols.begin() + narrow<std::ptrdiff_t>(g.end(v));
      g.erase(v, narrow<eid_t>(std::lower_bound(first, last, u) -
                               g.cols.begin()));
      return;
    }
    case Corruption::kAddOneWayArc: {
      while (true) {
        const vid_t u = random_vertex(rng, g.n());
        const vid_t v = random_vertex(rng, g.n());
        if (u == v || g.has_arc(u, v)) continue;
        g.insert_sorted(u, v);
        return;
      }
    }
    case Corruption::kAddSelfLoop: {
      const vid_t u = random_vertex(rng, g.n());
      g.insert_sorted(u, u);
      return;
    }
    case Corruption::kDuplicateColumn: {
      const vid_t u = vertex_with_degree(rng, g, 1);
      const eid_t k = random_slot(rng, g, u);
      g.insert(u, k + 1, g.cols[k]);
      return;
    }
    case Corruption::kSwapColumns: {
      const vid_t u = vertex_with_degree(rng, g, 2);
      const eid_t k = g.begin(u) + rng.bounded(g.end(u) - g.begin(u) - 1);
      std::swap(g.cols[k], g.cols[k + 1]);
      return;
    }
    case Corruption::kShiftOffset: {
      // One interior offset moves by one arc either way: two rows swap
      // an entry, or (at a row boundary) the offsets stop being monotone.
      const std::size_t i = 1 + rng.bounded(g.rows.size() - 2);
      if (rng.bounded(2) == 0) {
        ++g.rows[i];
      } else {
        --g.rows[i];
      }
      return;
    }
  }
}

void expect_matches_reference(const RawCsr& g, const std::string& what) {
  EXPECT_EQ(describe(validate_csr(g.rows, g.cols)),
            describe(reference_validate(g.rows, g.cols)))
      << what;
}

TEST(ValidateCsrOracle, EveryCorruptionMatchesTheReverseRowSearch) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const vid_t n = narrow<vid_t>(40 + 10 * seed);
    const Csr base = make_erdos_renyi_gnm(n, 4 * eid_t{n}, seed);
    for (const Corruption kind : kCorruptions) {
      Xoshiro256ss rng(seed * 131 + static_cast<std::uint64_t>(kind));
      RawCsr g(base);
      corrupt(g, kind, rng);
      expect_matches_reference(
          g, "seed=" + std::to_string(seed) +
                 " corruption=" + std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(ValidateCsrOracle, SuiteGraphsMatchUnderEveryCorruption) {
  for (const char* name : {"kron-like", "road-like", "citation-like"}) {
    const Csr base = make_suite_graph(name, {.scale = 0.01, .seed = 3}).graph;
    ASSERT_FALSE(validate_csr(base).has_value()) << name;
    for (const Corruption kind : kCorruptions) {
      Xoshiro256ss rng(7 + static_cast<std::uint64_t>(kind));
      RawCsr g(base);
      corrupt(g, kind, rng);
      expect_matches_reference(g, std::string(name) + " corruption=" +
                                      std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(ValidateCsrOracle, HubRowWiderThan16Bits) {
  // A hub row of 70000 arcs. With the hub first they are all upper arcs;
  // with the hub last they are all lower arcs, so its claimed-entry count
  // passes 2^16.
  constexpr vid_t kLeaves = 70000;
  std::vector<eid_t> rows;
  std::vector<vid_t> cols;
  for (vid_t v = 0; v < kLeaves; ++v) {
    rows.push_back(v);
    cols.push_back(kLeaves);
  }
  rows.push_back(kLeaves);
  for (vid_t v = 0; v < kLeaves; ++v) cols.push_back(v);
  rows.push_back(2 * eid_t{kLeaves});
  const Csr hub_first = make_star(kLeaves);
  const Csr hub_last(std::move(rows), std::move(cols));

  for (const vid_t hub : {vid_t{0}, kLeaves}) {
    const Csr& star = hub == 0 ? hub_first : hub_last;
    const std::string what = "hub " + std::to_string(hub);
    ASSERT_EQ(star.degree(hub), kLeaves) << what;
    const RawCsr ok(star);
    EXPECT_FALSE(validate_csr(ok.rows, ok.cols).has_value()) << what;
    expect_matches_reference(ok, what);

    // Drop the hub's arc to its last leaf: that leaf's arc to the hub is
    // the first arc without a reverse.
    RawCsr last(star);
    const vid_t leaf = last.cols[last.end(hub) - 1];
    last.erase(hub, last.end(hub) - 1);
    const auto issue = validate_csr(last.rows, last.cols);
    ASSERT_TRUE(issue.has_value()) << what;
    EXPECT_EQ(issue->defect, CsrDefect::kAsymmetricEdge) << what;
    EXPECT_EQ(issue->row, leaf) << what;
    EXPECT_EQ(issue->value, hub) << what;
    expect_matches_reference(last, what + " minus its last arc");

    // Drop a leaf's only arc: the hub's arc to it is now one-way.
    RawCsr one_way(star);
    one_way.erase(66000, one_way.begin(66000));
    expect_matches_reference(one_way, what + " minus one leaf arc");
  }
}

}  // namespace
}  // namespace gcg
