#include "graph/io/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "check/csr.hpp"
#include "graph/gen/powerlaw.hpp"
#include "graph/gen/special.hpp"
#include "support/gbin_streams.hpp"

namespace gcg {
namespace {

bool same_graph(const Csr& a, const Csr& b) {
  return a.num_vertices() == b.num_vertices() &&
         std::equal(a.row_offsets().begin(), a.row_offsets().end(),
                    b.row_offsets().begin(), b.row_offsets().end()) &&
         std::equal(a.col_indices().begin(), a.col_indices().end(),
                    b.col_indices().begin(), b.col_indices().end());
}

class IoRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(IoRoundTrip, PetersenSurvives) {
  const Csr g = make_petersen();
  const std::string ext = GetParam();
  std::stringstream buf;
  if (ext == "el") {
    save_edge_list(buf, g);
    EXPECT_TRUE(same_graph(g, load_edge_list(buf)));
  } else if (ext == "mtx") {
    save_matrix_market(buf, g);
    EXPECT_TRUE(same_graph(g, load_matrix_market(buf)));
  } else if (ext == "col") {
    save_dimacs_color(buf, g);
    EXPECT_TRUE(same_graph(g, load_dimacs_color(buf)));
  } else {
    save_binary(buf, g);
    EXPECT_TRUE(same_graph(g, load_binary(buf)));
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, IoRoundTrip,
                         ::testing::Values("el", "mtx", "col", "gbin"));

TEST(IoRoundTrip, LargerGraphAllFormats) {
  const Csr g = make_rmat(8, 4, {}, 3);
  for (const char* ext : {"el", "mtx", "col", "gbin"}) {
    const std::string path =
        std::string(::testing::TempDir()) + "/gcg_io_test." + ext;
    save_graph(path, g);
    const Csr back = load_graph(path);
    EXPECT_TRUE(same_graph(g, back)) << ext;
    std::remove(path.c_str());
  }
}

TEST(EdgeList, SkipsCommentsAndBlank) {
  std::istringstream in("# comment\n% other comment\n\n0 1\n1 2\n");
  const Csr g = load_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(EdgeList, MinVerticesPadsIsolated) {
  std::istringstream in("0 1\n");
  const Csr g = load_edge_list(in, 10);
  EXPECT_EQ(g.num_vertices(), 10u);
}

TEST(EdgeList, RejectsGarbage) {
  std::istringstream in("0 x\n");
  EXPECT_THROW(load_edge_list(in), std::runtime_error);
}

TEST(MatrixMarket, AcceptsGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 3\n"
      "1 2 0.5\n"
      "2 3 1.5\n"
      "3 1 2.0\n");
  const Csr g = load_matrix_market(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);  // symmetrized triangle
  EXPECT_EQ(check::validate_csr(g), std::nullopt);
}

TEST(MatrixMarket, AcceptsSymmetricPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "2 2 1\n"
      "2 1\n");
  const Csr g = load_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(MatrixMarket, DropsDiagonal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "1 2\n");
  EXPECT_EQ(load_matrix_market(in).num_edges(), 1u);
}

TEST(MatrixMarket, RejectsNonSquare) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 3 1\n"
      "1 2\n");
  EXPECT_THROW(load_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("3 3 0\n");
  EXPECT_THROW(load_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeIndex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 5\n");
  EXPECT_THROW(load_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsVertexCountPastVid) {
  // 2^32 + 2 vertices would narrow to 2, and entry 2^32 + 1 to vertex 0.
  std::istringstream past(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4294967298 4294967298 1\n"
      "4294967297 2\n");
  EXPECT_THROW(load_matrix_market(past), std::runtime_error);
  // The entry count sizes nothing up front: a lying one is a truncation.
  std::istringstream lying_nnz(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1000000000000\n"
      "1 2\n");
  EXPECT_THROW(load_matrix_market(lying_nnz), std::runtime_error);
}

TEST(Dimacs, ParsesStandardInstance) {
  std::istringstream in(
      "c sample\n"
      "p edge 4 3\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 3 4\n");
  const Csr g = load_dimacs_color(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Dimacs, RejectsEdgeBeforeProblem) {
  std::istringstream in("e 1 2\n");
  EXPECT_THROW(load_dimacs_color(in), std::runtime_error);
}

TEST(Dimacs, RejectsVertexZero) {
  std::istringstream in("p edge 2 1\ne 0 1\n");
  EXPECT_THROW(load_dimacs_color(in), std::runtime_error);
}

TEST(Dimacs, RejectsVertexCountPastVid) {
  std::istringstream past("p edge 4294967298 1\ne 1 2\n");
  EXPECT_THROW(load_dimacs_color(past), std::runtime_error);
  // The edge count sizes nothing up front.
  std::istringstream lying_m("p edge 2 1000000000000\ne 1 2\n");
  EXPECT_EQ(load_dimacs_color(lying_m).num_edges(), 1u);
}

TEST(Binary, RejectsBadMagic) {
  std::istringstream in("NOTMAGIC and then some");
  EXPECT_THROW(load_binary(in), std::runtime_error);
}

TEST(Binary, RejectsTruncation) {
  std::string data = test_support::gbin_bytes(make_petersen());
  data.resize(data.size() / 2);
  std::istringstream seekable(data);
  test_support::UnseekableBuf buf(data);
  std::istream unseekable(&buf);
  for (std::istream* in : {static_cast<std::istream*>(&seekable),
                           static_cast<std::istream*>(&unseekable)}) {
    try {
      (void)load_binary(*in);
      ADD_FAILURE() << "a half file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Dispatch, UnknownExtensionThrows) {
  EXPECT_THROW(load_graph("/tmp/whatever.xyz"), std::runtime_error);
  EXPECT_THROW(save_graph("/tmp/whatever.xyz", make_petersen()),
               std::runtime_error);
}

TEST(Dispatch, MissingFileThrows) {
  EXPECT_THROW(load_graph("/nonexistent/nope.mtx"), std::runtime_error);
}

}  // namespace
}  // namespace gcg
