#include "svc/graph_registry.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/gen/special.hpp"
#include "graph/io/io.hpp"
#include "graph/reorder.hpp"
#include "util/narrow.hpp"

namespace gcg::svc {
namespace {

// Small scale keeps generator-backed tests fast.
constexpr const char* kTiny = "gen:ecology-like?scale=0.02&seed=1";

TEST(RegistryKey, GenSpecCanonicalizes) {
  EXPECT_EQ(GraphRegistry::canonical_key("gen:rmat-like"),
            "gen:rmat-like?scale=1&seed=1");
  EXPECT_EQ(GraphRegistry::canonical_key("gen:rmat-like?seed=3&scale=0.50"),
            "gen:rmat-like?scale=0.5&seed=3");
  // Same graph, differently written spec -> same key.
  EXPECT_EQ(GraphRegistry::canonical_key("gen:er-like?scale=0.5"),
            GraphRegistry::canonical_key("gen:er-like?seed=1&scale=0.500"));
}

TEST(RegistryKey, OrderParamCanonicalizes) {
  // Explicit natural order collapses onto the pre-order spelling, so all
  // keys that existed before the order parameter stay byte-identical.
  EXPECT_EQ(GraphRegistry::canonical_key("gen:rmat-like?order=natural"),
            "gen:rmat-like?scale=1&seed=1");
  EXPECT_EQ(GraphRegistry::canonical_key("gen:rmat-like?order=degree-desc"),
            "gen:rmat-like?scale=1&seed=1&order=degree-desc");
  // Parameter order in the spec does not matter; the key is canonical.
  EXPECT_EQ(
      GraphRegistry::canonical_key("gen:er-like?order=rcm&seed=3&scale=0.50"),
      GraphRegistry::canonical_key("gen:er-like?scale=0.5&order=rcm&seed=3"));
  EXPECT_THROW(GraphRegistry::canonical_key("gen:er-like?order=bogus"),
               std::invalid_argument);
}

TEST(Registry, OrderSpecYieldsTheReorderedGraph) {
  GraphRegistry reg;
  const auto base = reg.acquire("gen:ecology-like?scale=0.02&seed=1");
  const auto ordered =
      reg.acquire("gen:ecology-like?scale=0.02&seed=1&order=degree-desc");
  ASSERT_NE(base.get(), ordered.get());  // distinct cache entries
  ASSERT_EQ(base->num_vertices(), ordered->num_vertices());
  ASSERT_EQ(base->num_arcs(), ordered->num_arcs());

  // The registry must apply exactly reorder(generated, order, gen seed),
  // so one spec string always names the same relabeled graph.
  const Csr expected = reorder(*base, Order::kDegreeDescending, 1);
  for (vid_t v = 0; v < ordered->num_vertices(); ++v) {
    const auto got = ordered->neighbors(v);
    const auto want = expected.neighbors(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "vertex " << v;
  }
}

TEST(RegistryKey, MalformedGenSpecsThrow) {
  for (const char* bad : {"gen:", "gen:x?scale=", "gen:x?scale=-1",
                          "gen:x?bogus=1", "gen:x?seed=abc", ""}) {
    EXPECT_THROW(GraphRegistry::canonical_key(bad), std::invalid_argument)
        << bad;
  }
}

// Overflow hardening happens at spec-parse time (graph_registry.cpp):
// a scale whose vertex count would wrap vid_t, a non-finite scale, or a
// seed past uint64 must throw here — which submit() maps to a stable
// bad_request — never reach a generator and truncate.
TEST(RegistryKey, OverflowingGenSpecsThrow) {
  for (const char* bad : {
           "gen:er-like?scale=100",           // past kMaxSuiteScale
           "gen:er-like?scale=1e300",         // astronomically past it
           "gen:er-like?scale=inf",           // parses as +inf
           "gen:er-like?scale=nan",           // escapes <=0 comparisons
           "gen:er-like?seed=18446744073709551616",  // 2^64: u64 overflow
           "gen:er-like?seed=99999999999999999999",
       }) {
    EXPECT_THROW(GraphRegistry::canonical_key(bad), std::invalid_argument)
        << bad;
  }
  // The largest admitted scale and seed still parse.
  EXPECT_NO_THROW(GraphRegistry::canonical_key(
      "gen:er-like?scale=64&seed=18446744073709551615"));
}

TEST(RegistryKey, PathsCanonicalize) {
  // Relative and absolute spellings of the same file agree.
  const std::string rel = "some_graph.mtx";
  const std::string dotted = "./some_graph.mtx";
  EXPECT_EQ(GraphRegistry::canonical_key(rel),
            GraphRegistry::canonical_key(dotted));
}

TEST(Registry, CachesGeneratedGraphs) {
  GraphRegistry reg;
  const auto g1 = reg.acquire(kTiny);
  ASSERT_NE(g1, nullptr);
  EXPECT_GT(g1->num_vertices(), 0u);

  bool hit = false;
  const auto g2 = reg.acquire(kTiny, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(g1.get(), g2.get());  // same resident object

  const auto s = reg.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(Registry, CachesFilesAcrossSpellings) {
  const std::string path = std::string(::testing::TempDir()) + "/gcg_reg.el";
  {
    std::ofstream out(path);
    save_edge_list(out, make_petersen());
  }
  GraphRegistry reg;
  const auto a = reg.acquire(path);
  bool hit = false;
  const auto b = reg.acquire(path, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->num_vertices(), 10u);
  std::remove(path.c_str());
}

TEST(Registry, LruEvictsColdGraphsByCount) {
  GraphRegistry::Options opts;
  opts.max_entries = 2;
  GraphRegistry reg(opts);
  const std::string a = "gen:ecology-like?scale=0.02&seed=1";
  const std::string b = "gen:ecology-like?scale=0.02&seed=2";
  const std::string c = "gen:ecology-like?scale=0.02&seed=3";
  reg.acquire(a);
  reg.acquire(b);
  reg.acquire(a);  // touch a: b is now coldest
  reg.acquire(c);  // evicts b

  bool hit = false;
  reg.acquire(a, &hit);
  EXPECT_TRUE(hit) << "recently used entry must survive";
  reg.acquire(b, &hit);
  EXPECT_FALSE(hit) << "cold entry must have been evicted";
  EXPECT_GE(reg.stats().evictions, 1u);
}

TEST(Registry, ByteBoundEvicts) {
  GraphRegistry::Options opts;
  opts.max_bytes = 1;  // everything over budget: keep only the newest
  GraphRegistry reg(opts);
  reg.acquire("gen:ecology-like?scale=0.02&seed=1");
  reg.acquire("gen:ecology-like?scale=0.02&seed=2");
  EXPECT_EQ(reg.stats().entries, 1u);
}

TEST(Registry, EvictionDoesNotInvalidateOutstandingRefs) {
  GraphRegistry::Options opts;
  opts.max_entries = 1;
  GraphRegistry reg(opts);
  const auto held = reg.acquire("gen:ecology-like?scale=0.02&seed=1");
  const vid_t n = held->num_vertices();
  reg.acquire("gen:ecology-like?scale=0.02&seed=2");  // evicts the first
  EXPECT_EQ(held->num_vertices(), n);  // shared_ptr keeps it alive
}

TEST(Registry, FailedLoadsAreNotCached) {
  GraphRegistry reg;
  EXPECT_THROW(reg.acquire("/nonexistent/graph.mtx"), std::runtime_error);
  EXPECT_THROW(reg.acquire("gen:no-such-suite-graph?scale=0.02"),
               std::exception);
  const auto s = reg.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.load_errors, 2u);
  // A retry attempts the load again (counts as a fresh miss, not a hit).
  EXPECT_THROW(reg.acquire("/nonexistent/graph.mtx"), std::runtime_error);
  EXPECT_EQ(reg.stats().misses, 3u);
}

TEST(Registry, ConcurrentAcquiresShareOneLoad) {
  GraphRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Csr>> got(kThreads);
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] { got[to_unsigned(t)] = reg.acquire(kTiny); });
  }
  for (auto& th : team) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[0].get(), got[to_unsigned(t)].get());
  }
  const auto s = reg.stats();
  EXPECT_EQ(s.misses, 1u) << "exactly one thread should have loaded";
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(Registry, ClearDropsResidency) {
  GraphRegistry reg;
  reg.acquire(kTiny);
  reg.clear();
  EXPECT_EQ(reg.stats().entries, 0u);
  bool hit = true;
  reg.acquire(kTiny, &hit);
  EXPECT_FALSE(hit);
}

// ---- Validation at load time, eviction before it -----------------------

/// Three vertices whose arc 0->2 has no mate 2->0.
Csr asymmetric_graph() { return Csr({0, 2, 4, 5}, {1, 2, 0, 2, 1}); }

/// A named pipe posing as a .gbin file. A load from it blocks until the
/// test feeds it a graph, which holds that load in flight on demand.
class GraphPipe {
 public:
  explicit GraphPipe(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {
    std::remove(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0) {
      throw std::runtime_error("mkfifo failed: " + path_);
    }
  }
  ~GraphPipe() { std::remove(path_.c_str()); }
  GraphPipe(const GraphPipe&) = delete;
  GraphPipe& operator=(const GraphPipe&) = delete;

  const std::string& path() const { return path_; }

  /// Writes `g` as a v1 .gbin stream (v2 needs a seekable file) to the
  /// reader blocked on the pipe. False if no reader opens it within 10 s.
  bool feed(const Csr& g) const {
    std::ostringstream bytes;
    save_binary(bytes, g);
    const std::string data = bytes.str();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    int fd = -1;
    while ((fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK)) < 0) {
      if (errno != ENXIO || std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::fcntl(fd, F_SETFL, 0);  // blocking writes from here on
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
      if (n <= 0) break;
      done += to_unsigned(n);
    }
    ::close(fd);
    return done == data.size();
  }

 private:
  std::string path_;
};

/// Polls until `done(reg.stats())` holds; false after 10 s.
template <class Pred>
bool wait_for_stats(const GraphRegistry& reg, Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done(reg.stats())) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

GraphRegistry::Options pipe_options() {
  GraphRegistry::Options opts;
  opts.mmap_store = false;  // a pipe can be neither sniffed nor mapped
  return opts;
}

TEST(Registry, ConcurrentAcquiresShareOneFailedLoad) {
  GraphRegistry reg(pipe_options());
  const GraphPipe pipe("gcg_reg_shared_fail.gbin");
  constexpr std::size_t kThreads = 8;
  // Every waiter rethrows the one exception object the loader stored.
  // Its reference count lives in the uninstrumented C++ runtime, so the
  // threads only keep a reference and the checks read it after join():
  // that way TSan sees the object freed after every read.
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> team;
  for (std::size_t t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      try {
        reg.acquire(pipe.path());
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  // The load cannot finish before it is fed, so every thread joins it.
  EXPECT_TRUE(wait_for_stats(reg, [](const GraphRegistry::Stats& s) {
    return s.misses == 1 && s.hits == kThreads - 1;
  }));
  EXPECT_TRUE(pipe.feed(asymmetric_graph()));
  for (auto& th : team) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(errors[t]) << "thread " << t << " got a graph";
    try {
      std::rethrow_exception(errors[t]);
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("asymmetric_edge"),
                std::string::npos)
          << "thread " << t << ": " << e.what();
    }
  }
  const auto s = reg.stats();
  EXPECT_EQ(s.misses, 1u) << "exactly one thread should have loaded";
  EXPECT_EQ(s.load_errors, 1u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(Registry, LoadMakesRoomOnceTheGraphIsOpenBeforeValidating) {
  GraphRegistry::Options opts = pipe_options();
  opts.max_entries = 2;
  GraphRegistry reg(opts);
  const std::string a = "gen:ecology-like?scale=0.02&seed=1";
  const std::string b = "gen:ecology-like?scale=0.02&seed=2";
  reg.acquire(a);
  reg.acquire(b);

  // A load that cannot open its graph evicts nothing.
  EXPECT_THROW(reg.acquire("/nonexistent/graph.mtx"), std::runtime_error);
  EXPECT_EQ(reg.stats().evictions, 0u);

  // While the graph is still being read, the cache is untouched.
  const GraphPipe pipe("gcg_reg_evict_first.gbin");
  std::string error;
  std::thread loader([&] {
    try {
      reg.acquire(pipe.path());
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  EXPECT_TRUE(wait_for_stats(
      reg, [](const GraphRegistry::Stats& s) { return s.misses == 4; }));
  EXPECT_EQ(reg.stats().entries, 2u);
  EXPECT_EQ(reg.stats().evictions, 0u);
  EXPECT_TRUE(pipe.feed(asymmetric_graph()));
  loader.join();
  EXPECT_NE(error.find("asymmetric_edge"), std::string::npos) << error;

  // The graph was read, so room was made before validation failed: the
  // cold entry, and only it, is gone.
  EXPECT_EQ(reg.stats().evictions, 1u);
  EXPECT_EQ(reg.stats().entries, 1u);
  bool hit = false;
  reg.acquire(b, &hit);
  EXPECT_TRUE(hit);
  reg.acquire(a, &hit);
  EXPECT_FALSE(hit);
}

}  // namespace
}  // namespace gcg::svc
