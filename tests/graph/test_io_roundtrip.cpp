// File-level round-trip tests for the two formats the coloring service
// leans on: .gbin (fast reload of cached graphs) and .el (interchange).
// Unlike test_io.cpp, which round-trips streams, these go through
// save_graph/load_graph so the extension dispatch (including its
// case-insensitive matching) is on the tested path, and they use
// generator-suite graphs rather than toy fixtures.
#include "graph/io/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "graph/gen/suite.hpp"

namespace gcg {
namespace {

bool same_graph(const Csr& a, const Csr& b) {
  return a.num_vertices() == b.num_vertices() &&
         std::equal(a.row_offsets().begin(), a.row_offsets().end(),
                    b.row_offsets().begin(), b.row_offsets().end()) &&
         std::equal(a.col_indices().begin(), a.col_indices().end(),
                    b.col_indices().begin(), b.col_indices().end());
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class SuiteRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteRoundTrip, GbinSurvives) {
  const Csr g = make_suite_graph(GetParam(), {.scale = 0.02, .seed = 7}).graph;
  ASSERT_GT(g.num_edges(), 0u);
  const ScopedFile f(temp_path(std::string("rt_") + GetParam() + ".gbin"));
  save_graph(f.path(), g);
  EXPECT_TRUE(same_graph(g, load_graph(f.path())));
}

TEST_P(SuiteRoundTrip, EdgeListSurvives) {
  const Csr g = make_suite_graph(GetParam(), {.scale = 0.02, .seed = 7}).graph;
  const ScopedFile f(temp_path(std::string("rt_") + GetParam() + ".el"));
  save_graph(f.path(), g);
  EXPECT_TRUE(same_graph(g, load_graph(f.path())));
}

INSTANTIATE_TEST_SUITE_P(Suite, SuiteRoundTrip,
                         ::testing::Values("ecology-like", "road-like",
                                           "kron-like", "citation-like"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(IoDispatch, ExtensionsMatchCaseInsensitively) {
  const Csr g = make_suite_graph("ecology-like", {.scale = 0.02}).graph;
  for (const char* name : {"rt_upper.GBIN", "rt_mixed.El"}) {
    const ScopedFile f(temp_path(name));
    save_graph(f.path(), g);
    EXPECT_TRUE(same_graph(g, load_graph(f.path()))) << name;
  }
}

TEST(IoDispatch, UnknownExtensionListsSupportedOnes) {
  try {
    load_graph("/tmp/does_not_matter.xyz");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(".xyz"), std::string::npos) << msg;
    EXPECT_NE(msg.find(".gbin"), std::string::npos)
        << "error should list supported extensions: " << msg;
  }
}

TEST(GbinFormat, MalformedHeaderIsRejected) {
  // Wrong magic.
  const ScopedFile bad_magic(temp_path("rt_badmagic.gbin"));
  {
    std::ofstream out(bad_magic.path(), std::ios::binary);
    out << "notgbin!then some trailing bytes";
  }
  EXPECT_THROW(load_graph(bad_magic.path()), std::runtime_error);

  // Right magic, truncated payload.
  const ScopedFile truncated(temp_path("rt_trunc.gbin"));
  {
    const Csr g = make_suite_graph("ecology-like", {.scale = 0.02}).graph;
    std::ofstream out(truncated.path(), std::ios::binary);
    save_binary(out, g);
  }
  std::string bytes;
  {
    std::ifstream in(truncated.path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(truncated.path(), std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(load_graph(truncated.path()), std::runtime_error);

  // Empty file.
  const ScopedFile empty(temp_path("rt_empty.gbin"));
  { std::ofstream out(empty.path(), std::ios::binary); }
  EXPECT_THROW(load_graph(empty.path()), std::runtime_error);
}

}  // namespace
}  // namespace gcg
