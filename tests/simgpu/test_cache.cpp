#include "simgpu/cache.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "simgpu/dispatch.hpp"

namespace gcg::simgpu {
namespace {

TEST(CacheSim, ColdMissesThenHits) {
  CacheSim c(64 * 1024, 64, 4);
  EXPECT_FALSE(c.access(1));
  EXPECT_FALSE(c.access(2));
  EXPECT_TRUE(c.access(1));
  EXPECT_TRUE(c.access(2));
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(CacheSim, CapacityEviction) {
  // Tiny cache: 4 lines total. Streaming 8 distinct lines twice: the
  // second pass must still mostly miss (working set exceeds capacity).
  CacheSim c(4 * 64, 64, 2);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t line = 0; line < 8; ++line) c.access(line);
  }
  EXPECT_GT(c.misses(), 10u);
}

TEST(CacheSim, LruKeepsHotLine) {
  // 1 set x 2 ways: keep re-touching line A while streaming B,C,B,C...
  CacheSim c(2 * 64, 64, 2);
  EXPECT_EQ(c.sets(), 1u);
  c.access(100);  // miss, insert A
  for (std::uint64_t i = 0; i < 6; ++i) {
    c.access(200 + (i % 2));  // B/C alternate, evicting each other
    EXPECT_TRUE(c.access(100)) << i;  // A stays resident (recently used)
  }
}

TEST(CacheSim, ResetClearsEverything) {
  CacheSim c(64 * 1024, 64, 4);
  c.access(5);
  c.access(5);
  c.reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.access(5));  // cold again
}

TEST(CacheSim, FitsWorkingSetPerfectlyAfterWarmup) {
  CacheSim c(1024 * 64, 64, 16);
  for (std::uint64_t line = 0; line < 512; ++line) c.access(line);  // warm
  const auto warm_misses = c.misses();
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t line = 0; line < 512; ++line) c.access(line);
  }
  // Well under capacity: no more (or very few, from set conflicts) misses.
  EXPECT_LE(c.misses() - warm_misses, 16u);
}

// --- integration with the wave cost model ---------------------------------

TEST(CacheIntegration, HitsReduceWaveCost) {
  DeviceConfig cfg = test_device();
  std::vector<std::uint32_t> mem(1024);
  std::iota(mem.begin(), mem.end(), 0u);
  auto kernel = [&](Wave& w) {
    Vec<std::uint32_t> idx;
    for (unsigned i = 0; i < w.width(); ++i) idx[i] = i * 16;
    for (int rep = 0; rep < 8; ++rep) {
      w.load(std::span<const std::uint32_t>(mem), idx, Mask::full(w.width()));
    }
  };
  const LaunchResult cold = dispatch_waves(cfg, 8, 8, kernel, nullptr);

  CacheSim l2(cfg.l2_bytes, cfg.cacheline_bytes, cfg.l2_ways);
  const LaunchResult cached = dispatch_waves(cfg, 8, 8, kernel, &l2);
  EXPECT_GT(cached.total.mem_lines_hit, 0u);
  EXPECT_GT(cached.total.mem_instructions_hit, 0u);
  EXPECT_LT(cached.kernel_cycles, cold.kernel_cycles);
  // Same functional traffic either way.
  EXPECT_EQ(cached.total.mem_transactions, cold.total.mem_transactions);
}

TEST(CacheIntegration, DistinctBuffersDoNotAlias) {
  DeviceConfig cfg = test_device();
  std::vector<std::uint32_t> a(16, 1), b(16, 2);
  CacheSim l2(cfg.l2_bytes, cfg.cacheline_bytes, cfg.l2_ways);
  dispatch_waves(cfg, 8, 8,
                 [&](Wave& w) {
                   const auto idx = Vec<std::uint32_t>::splat(0);
                   w.load(std::span<const std::uint32_t>(a), idx, Mask(0b1));
                   w.load(std::span<const std::uint32_t>(b), idx, Mask(0b1));
                 },
                 &l2);
  // Both first-touches must miss: different base addresses, different lines.
  EXPECT_EQ(l2.misses(), 2u);
}

TEST(CacheIntegration, DeviceOwnsPersistentL2State) {
  DeviceConfig cfg = test_device();
  cfg.enable_l2_cache = true;
  Device dev(cfg);
  ASSERT_NE(dev.l2(), nullptr);
  std::vector<std::uint32_t> mem(256, 7);
  auto kernel = [&](Wave& w) {
    w.load_uniform(std::span<const std::uint32_t>(mem), 0);
  };
  dev.launch_waves(8, 8, kernel);
  const auto first_misses = dev.l2()->misses();
  dev.launch_waves(8, 8, kernel);  // same line again: warm across launches
  EXPECT_EQ(dev.l2()->misses(), first_misses);
  EXPECT_GT(dev.l2()->hits(), 0u);

  DeviceConfig off = test_device();
  Device plain(off);
  EXPECT_EQ(plain.l2(), nullptr);
}

TEST(CacheIntegration, NoCacheMeansNoHitCounters) {
  DeviceConfig cfg = test_device();
  std::vector<std::uint32_t> mem(64, 3);
  const LaunchResult r = dispatch_waves(cfg, 8, 8, [&](Wave& w) {
    const auto idx = Vec<std::uint32_t>::splat(0);
    w.load(std::span<const std::uint32_t>(mem), idx, Mask::full(8));
    w.load(std::span<const std::uint32_t>(mem), idx, Mask::full(8));
  });
  EXPECT_EQ(r.total.mem_lines_hit, 0u);
  EXPECT_EQ(r.total.mem_instructions_hit, 0u);
}

}  // namespace
}  // namespace gcg::simgpu
