#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.hpp"

namespace gcg {
namespace {

Csr triangle() {
  return GraphBuilder::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
}

TEST(Csr, EmptyGraph) {
  Csr g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(Csr, TriangleBasics) {
  const Csr g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (vid_t v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 2.0);
}

TEST(Csr, NeighborsAreSortedSpans) {
  const Csr g = triangle();
  const auto nb = g.neighbors(1);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0], 0u);
  EXPECT_EQ(nb[1], 2u);
}

TEST(Csr, ValidateRejectsBadOffsets) {
  EXPECT_THROW(Csr(std::vector<eid_t>{1, 2}, std::vector<vid_t>{0, 0}),
               std::invalid_argument);
  EXPECT_THROW(Csr(std::vector<eid_t>{0, 2, 1}, std::vector<vid_t>{0}),
               std::invalid_argument);
  EXPECT_THROW(Csr(std::vector<eid_t>{0, 5}, std::vector<vid_t>{0}),
               std::invalid_argument);
}

TEST(Csr, ValidateRejectsOutOfRangeColumn) {
  EXPECT_THROW(Csr(std::vector<eid_t>{0, 1}, std::vector<vid_t>{7}),
               std::invalid_argument);
}

TEST(Csr, IsolatedVertices) {
  const Csr g(std::vector<eid_t>{0, 0, 0, 0}, std::vector<vid_t>{});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_TRUE(g.neighbors(1).empty());
}

// ------------------------------------------------------- ownership seam

/// Externally anchored storage standing in for a file mapping.
struct Anchor {
  std::vector<eid_t> rows{0, 2, 4, 6};
  std::vector<vid_t> cols{1, 2, 0, 2, 0, 1};
};

Csr view_of(const std::shared_ptr<Anchor>& a) {
  return Csr::view(a->rows, a->cols, a);
}

TEST(CsrView, BorrowsWithoutCopying) {
  const auto a = std::make_shared<Anchor>();
  const Csr v = view_of(a);
  EXPECT_TRUE(v.is_view());
  EXPECT_EQ(v.heap_bytes(), 0u);
  EXPECT_EQ(v.num_vertices(), 3u);
  EXPECT_EQ(v.row_offsets().data(), a->rows.data());  // zero-copy: same bytes
  EXPECT_EQ(v.col_indices().data(), a->cols.data());
  EXPECT_NO_THROW(v.validate());
}

TEST(CsrView, OwningGraphIsNotAView) {
  const Csr g = triangle();
  EXPECT_FALSE(g.is_view());
  EXPECT_GT(g.heap_bytes(), 0u);
}

TEST(CsrView, CopyOfViewSharesStorageAndKeepalive) {
  const auto a = std::make_shared<Anchor>();
  const Csr v = view_of(a);
  const long before = a.use_count();
  const Csr copy = v;  // NOLINT: the copy IS the behavior under test
  EXPECT_TRUE(copy.is_view());
  EXPECT_EQ(copy.row_offsets().data(), v.row_offsets().data());
  EXPECT_EQ(a.use_count(), before + 1);  // copy holds its own anchor ref
}

TEST(CsrView, CopyOfOwningDeepCopies) {
  const Csr g = triangle();
  const Csr copy = g;
  EXPECT_FALSE(copy.is_view());
  EXPECT_NE(copy.row_offsets().data(), g.row_offsets().data());
  EXPECT_TRUE(std::equal(copy.col_indices().begin(), copy.col_indices().end(),
                         g.col_indices().begin(), g.col_indices().end()));
}

TEST(CsrView, MoveOfOwningTransfersWithoutCopying) {
  Csr g = triangle();
  const eid_t* rows_before = g.row_offsets().data();
  const Csr moved = std::move(g);
  EXPECT_EQ(moved.row_offsets().data(), rows_before);  // allocation moved
  EXPECT_FALSE(moved.is_view());
  EXPECT_NO_THROW(moved.validate());
}

TEST(CsrView, KeepaliveOutlivesLastHandle) {
  auto a = std::make_shared<Anchor>();
  Csr v = view_of(a);
  std::weak_ptr<Anchor> watch = a;
  a.reset();  // only the view anchors the storage now
  ASSERT_FALSE(watch.expired());
  EXPECT_NO_THROW(v.validate());  // storage still alive through the view
  v = Csr();                      // last handle gone
  EXPECT_TRUE(watch.expired());
}

TEST(CsrView, AssignViewOverOwningReleasesHeap) {
  const auto a = std::make_shared<Anchor>();
  Csr g = triangle();
  g = view_of(a);
  EXPECT_TRUE(g.is_view());
  EXPECT_EQ(g.heap_bytes(), 0u);
  EXPECT_EQ(g.row_offsets().data(), a->rows.data());
}

TEST(CsrView, RejectsMalformedShape) {
  const auto a = std::make_shared<Anchor>();
  // Empty rows: no n+1 prefix array.
  EXPECT_THROW((void)Csr::view(std::span<const eid_t>{}, a->cols, a),
               std::invalid_argument);
  // rows.back() must equal |cols|.
  const std::vector<eid_t> short_rows{0, 2};
  EXPECT_THROW((void)Csr::view(short_rows, a->cols, a),
               std::invalid_argument);
}

}  // namespace
}  // namespace gcg
