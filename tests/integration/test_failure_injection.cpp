// Failure injection: feed the library corrupted inputs and make sure every
// layer fails loudly (throws or reports) instead of producing garbage.
#include <gtest/gtest.h>

#include <sstream>

#include "coloring/runner.hpp"
#include "check/coloring.hpp"
#include "graph/builder.hpp"
#include "graph/io/io.hpp"
#include "graph/reorder.hpp"
#include "graph/gen/special.hpp"
#include "support/gbin_streams.hpp"
#include "util/rng.hpp"

namespace gcg {
namespace {

TEST(FailureInjection, CorruptCsrOffsetsRejected) {
  // Every malformed offset array must throw at construction.
  using V = std::vector<eid_t>;
  using C = std::vector<vid_t>;
  EXPECT_THROW(Csr(V{}, C{}), std::invalid_argument);          // empty rows
  EXPECT_THROW(Csr(V{1, 1}, C{0}), std::invalid_argument);     // rows[0]!=0
  EXPECT_THROW(Csr(V{0, 3, 2, 4}, C{0, 1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(Csr(V{0, 9}, C{0}), std::invalid_argument);     // bad total
}

TEST(FailureInjection, CorruptColumnIndexRejected) {
  EXPECT_THROW(Csr(std::vector<eid_t>{0, 1, 1}, std::vector<vid_t>{5}),
               std::invalid_argument);
}

TEST(FailureInjection, VerifierCatchesSingleFlippedColor) {
  // Flip one color anywhere in a valid coloring of a cycle: the verifier
  // must notice (unless the flip happens to stay proper).
  const Csr g = make_cycle(24);
  Xoshiro256ss rng(5);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<color_t> colors(24);
    for (vid_t v = 0; v < 24; ++v) colors[v] = static_cast<color_t>(v % 2);
    const auto victim = static_cast<vid_t>(rng.bounded(24));
    colors[victim] ^= 1;  // equal to both neighbours now
    EXPECT_FALSE(check::is_valid_coloring(g, colors)) << "victim " << victim;
    const auto violation = check::verify_coloring(g, colors);
    ASSERT_TRUE(violation.has_value());
    EXPECT_TRUE(violation->u == victim || violation->v == victim);
  }
}

TEST(FailureInjection, VerifierCatchesErasedColor) {
  const Csr g = make_cycle(10);
  std::vector<color_t> colors(10);
  for (vid_t v = 0; v < 10; ++v) colors[v] = static_cast<color_t>(v % 2);
  colors[7] = kUncolored;
  EXPECT_FALSE(check::is_valid_coloring(g, colors));
  EXPECT_TRUE(check::is_valid_coloring(g, colors, /*require_complete=*/false));
}

TEST(FailureInjection, TruncatedFilesThrow) {
  const Csr g = make_petersen();
  // Truncate each text format at several byte offsets: loads either throw
  // or (for prefix-valid cuts) produce a structurally valid graph.
  for (int format = 0; format < 2; ++format) {
    std::stringstream full;
    if (format == 0) {
      save_matrix_market(full, g);
    } else {
      save_dimacs_color(full, g);
    }
    const std::string data = full.str();
    for (std::size_t cut : {data.size() / 4, data.size() / 2}) {
      std::istringstream in(data.substr(0, cut));
      try {
        Csr back = format == 0 ? load_matrix_market(in) : load_dimacs_color(in);
        back.validate();  // if it parsed, it must at least be structurally ok
      } catch (const std::runtime_error&) {
        SUCCEED();
      }
    }
  }
  // A .gbin prefix never parses: every cut is a truncation error, from a
  // seekable stream and from one that cannot seek alike.
  const std::string data = test_support::gbin_bytes(g);
  for (std::size_t cut : {std::size_t{0}, data.size() / 4, data.size() / 2,
                          data.size() - 1}) {
    std::istringstream seekable(data.substr(0, cut));
    test_support::UnseekableBuf buf(data.substr(0, cut));
    std::istream unseekable(&buf);
    for (std::istream* in : {static_cast<std::istream*>(&seekable),
                             static_cast<std::istream*>(&unseekable)}) {
      try {
        (void)load_binary(*in);
        ADD_FAILURE() << "a " << cut << "-byte prefix loaded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
            << cut << ": " << e.what();
      }
    }
  }
}

TEST(FailureInjection, GarbageBytesThrowEverywhere) {
  const std::string garbage = "\x7f\x45\x4c\x46 not a graph at all \xff\xfe";
  {
    std::istringstream in(garbage);
    EXPECT_THROW(load_matrix_market(in), std::runtime_error);
  }
  {
    std::istringstream in(garbage);
    EXPECT_THROW(load_dimacs_color(in), std::runtime_error);
  }
  {
    std::istringstream in(garbage);
    EXPECT_THROW(load_binary(in), std::runtime_error);
  }
  {
    std::istringstream in(garbage);
    EXPECT_THROW(load_edge_list(in), std::runtime_error);
  }
}

TEST(FailureInjectionDeathTest, ApplyOrderRejectsNonPermutation) {
  const Csr g = make_cycle(4);
  EXPECT_DEATH(apply_order(g, {0, 0, 1, 2}), "precondition");
  EXPECT_DEATH(apply_order(g, {0, 1, 2}), "precondition");
}

TEST(FailureInjectionDeathTest, RunnerRejectsAbsurdGroupSize) {
  // Group size below the wavefront width cannot form a wave.
  const Csr g = make_cycle(4);
  ColoringOptions opts;
  opts.group_size = 4;  // < wavefront 64 on tahiti
  EXPECT_DEATH(run_coloring(simgpu::tahiti(), g, Algorithm::kBaseline, opts),
               "precondition");
}

TEST(FailureInjection, UnknownNamesThrowNotCrash) {
  EXPECT_THROW(algorithm_from_name("quantum"), std::invalid_argument);
  EXPECT_THROW(order_from_name("sorted-by-vibes"), std::invalid_argument);
  EXPECT_THROW(load_graph("graph.unknownext"), std::runtime_error);
}

}  // namespace
}  // namespace gcg
