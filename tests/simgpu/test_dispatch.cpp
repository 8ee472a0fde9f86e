#include "simgpu/dispatch.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gcg::simgpu {
namespace {

class DispatchTest : public ::testing::Test {
 protected:
  DeviceConfig cfg = test_device();  // 4 CUs, 8-lane waves, 2 SIMDs/CU
};

TEST_F(DispatchTest, CoversEveryWorkItemExactlyOnce) {
  std::vector<int> touched(100, 0);
  dispatch_waves(cfg, 100, 16, [&](Wave& w) {
    for (unsigned i = 0; i < w.width(); ++i) {
      if (w.valid().test(i)) ++touched[w.global_ids()[i]];
    }
  });
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST_F(DispatchTest, GroupAndWaveGeometry) {
  std::vector<std::uint64_t> group_ids;
  std::vector<unsigned> waves_per_group;
  dispatch(cfg, 64, 16, [&](Group& g) {
    group_ids.push_back(g.group_id());
    waves_per_group.push_back(static_cast<unsigned>(g.waves().size()));
  });
  EXPECT_EQ(group_ids.size(), 4u);  // 64/16
  for (unsigned wpg : waves_per_group) EXPECT_EQ(wpg, 2u);  // 16/8 waves
}

TEST_F(DispatchTest, TrailingWaveIsMasked) {
  unsigned valid_lanes = 0;
  dispatch_waves(cfg, 10, 8, [&](Wave& w) { valid_lanes += w.valid().count(); });
  EXPECT_EQ(valid_lanes, 10u);
}

TEST_F(DispatchTest, EmptyGridStillHasLaunchOverhead) {
  const LaunchResult r = dispatch_waves(cfg, 0, 8, [](Wave&) { FAIL(); });
  EXPECT_DOUBLE_EQ(r.kernel_cycles, cfg.kernel_launch_cycles);
  EXPECT_EQ(r.num_groups, 0u);
}

TEST_F(DispatchTest, KernelTimeIsMaxCuPlusOverhead) {
  const LaunchResult r =
      dispatch_waves(cfg, 64, 8, [](Wave& w) { w.valu(Mask::full(8), 10.0); });
  double max_cu = 0.0;
  for (double b : r.cu_busy_cycles) max_cu = std::max(max_cu, b);
  EXPECT_DOUBLE_EQ(r.kernel_cycles, max_cu + cfg.kernel_launch_cycles);
}

TEST_F(DispatchTest, BalancedWorkSpreadsAcrossCus) {
  // 8 equal groups over 4 CUs: every CU gets exactly 2 groups.
  const LaunchResult r =
      dispatch_waves(cfg, 64, 8, [](Wave& w) { w.valu(Mask::full(8), 10.0); });
  EXPECT_EQ(r.num_groups, 8u);
  for (double b : r.cu_busy_cycles) EXPECT_DOUBLE_EQ(b, r.cu_busy_cycles[0]);
  EXPECT_NEAR(r.cu_imbalance(), 1.0, 1e-12);
}

TEST_F(DispatchTest, SkewedGroupCausesCuImbalance) {
  // Group 7 does 100x the work of the others.
  const LaunchResult r = dispatch_waves(cfg, 64, 8, [](Wave& w) {
    const bool heavy = w.first_global_id() / 8 == 7;
    w.valu(Mask::full(8), heavy ? 1000.0 : 10.0);
  });
  EXPECT_GT(r.cu_imbalance(), 2.0);
}

TEST_F(DispatchTest, ListSchedulingFillsEarliestFreeCu) {
  // Groups with decreasing cost: 40,30,20,10 over 4 CUs, then 4 more equal
  // ones; earliest-free scheduling must put later groups on lighter CUs.
  std::vector<double> costs{40, 30, 20, 10, 5, 5, 5, 5};
  const LaunchResult r = dispatch_waves(cfg, 64, 8, [&](Wave& w) {
    w.valu(Mask::full(8), costs[w.first_global_id() / 8]);
  });
  // CU loads: 40, 30+5, 20+5+5, 10+5+5+5 -> max 40.
  double max_cu = 0.0;
  for (double b : r.cu_busy_cycles) max_cu = std::max(max_cu, b);
  EXPECT_DOUBLE_EQ(max_cu, 40.0 * cfg.cpi_valu);
}

TEST_F(DispatchTest, SimdEfficiencyReflectsDivergence) {
  const LaunchResult full =
      dispatch_waves(cfg, 64, 8, [](Wave& w) { w.valu(Mask::full(8)); });
  EXPECT_NEAR(full.simd_efficiency, 1.0, 1e-12);
  const LaunchResult single =
      dispatch_waves(cfg, 64, 8, [](Wave& w) { w.valu(Mask(0b1)); });
  EXPECT_NEAR(single.simd_efficiency, 1.0 / 8.0, 1e-12);
}

TEST_F(DispatchTest, MemoryCostModel) {
  // Low occupancy exposes the full DRAM latency per memory instruction;
  // high occupancy divides it by the waves per SIMD available to overlap.
  const double low = latency_cost(cfg, 1.0);
  EXPECT_DOUBLE_EQ(low, cfg.mem_latency_cycles);
  const double high = latency_cost(cfg, cfg.max_waves_per_cu);
  EXPECT_DOUBLE_EQ(high, cfg.mem_latency_cycles /
                             (cfg.max_waves_per_cu /
                              static_cast<double>(cfg.simds_per_cu)));
  EXPECT_LT(high, low);
  EXPECT_DOUBLE_EQ(bandwidth_cost(cfg),
                   cfg.cacheline_bytes / cfg.mem_bytes_per_cycle_per_cu);
}

TEST_F(DispatchTest, BiggerGridsGetCheaperMemoryLatency) {
  auto kernel = [](Wave& w) {
    std::vector<std::uint32_t> mem(64);
    Vec<std::uint32_t> idx;
    w.load(std::span<const std::uint32_t>(mem), idx, Mask(0b1));
  };
  const LaunchResult small = dispatch_waves(cfg, 8, 8, kernel);
  const LaunchResult big = dispatch_waves(cfg, 8 * 512, 8, kernel);
  EXPECT_GT(small.mem_latency_cost, big.mem_latency_cost);
}

TEST_F(DispatchTest, DivergentLoopCostsMoreMemoryTimeThanCoalescedOne) {
  // The paper's core effect: one lane gathering d values serially (d
  // memory instructions) must cost far more than a full wave gathering
  // them cooperatively (d/width instructions), even at equal line counts.
  std::vector<std::uint32_t> mem(8 * 1024, 1);
  auto divergent = [&](Wave& w) {
    for (unsigned step = 0; step < 64; ++step) {
      Vec<std::uint32_t> idx;
      idx[0] = step * 16;  // a fresh line every step, single lane
      w.load(std::span<const std::uint32_t>(mem), idx, Mask(0b1));
    }
  };
  auto cooperative = [&](Wave& w) {
    for (unsigned step = 0; step < 8; ++step) {  // 64 lines in 8x8-lane steps
      Vec<std::uint32_t> idx;
      for (unsigned i = 0; i < 8; ++i) idx[i] = (step * 8 + i) * 16;
      w.load(std::span<const std::uint32_t>(mem), idx, Mask::full(8));
    }
  };
  const LaunchResult d = dispatch_waves(cfg, 8, 8, divergent);
  const LaunchResult c = dispatch_waves(cfg, 8, 8, cooperative);
  EXPECT_EQ(d.total.mem_transactions, c.total.mem_transactions);
  EXPECT_GT(d.kernel_cycles, 3.0 * c.kernel_cycles);
}

TEST_F(DispatchTest, DeterministicAcrossRuns) {
  auto kernel = [](Wave& w) { w.valu(w.valid(), 3.0); };
  const LaunchResult a = dispatch_waves(cfg, 1000, 16, kernel);
  const LaunchResult b = dispatch_waves(cfg, 1000, 16, kernel);
  EXPECT_DOUBLE_EQ(a.kernel_cycles, b.kernel_cycles);
  EXPECT_EQ(a.total.mem_transactions, b.total.mem_transactions);
}

TEST_F(DispatchTest, DeviceAccumulatesTimeline) {
  Device dev(cfg);
  dev.launch_waves(64, 8, [](Wave& w) { w.valu(Mask::full(8)); });
  dev.launch_waves(64, 8, [](Wave& w) { w.valu(Mask::full(8)); });
  EXPECT_EQ(dev.launch_count(), 2u);
  EXPECT_DOUBLE_EQ(dev.total_cycles(), dev.history()[0].kernel_cycles +
                                           dev.history()[1].kernel_cycles);
  EXPECT_GT(dev.total_ms(), 0.0);
  dev.reset();
  EXPECT_EQ(dev.launch_count(), 0u);
  EXPECT_DOUBLE_EQ(dev.total_cycles(), 0.0);
}

TEST_F(DispatchTest, GroupBarrierChargesEveryWave) {
  const LaunchResult r = dispatch(cfg, 32, 16, [](Group& g) { g.barrier(); });
  // 2 groups x 2 waves, one barrier each.
  EXPECT_EQ(r.total.barriers, 4u);
}

TEST_F(DispatchTest, LdsAllocatorEnforcesCapacity) {
  dispatch(cfg, 8, 8, [&](Group& g) {
    auto a = g.lds_alloc<std::uint32_t>(16);
    EXPECT_EQ(a.size(), 16u);
    a[0] = 42;
    EXPECT_EQ(a[0], 42u);
    EXPECT_GE(g.lds_used(), 64u);
  });
  EXPECT_DEATH(dispatch(cfg, 8, 8,
                        [&](Group& g) {
                          g.lds_alloc<std::uint8_t>(cfg.lds_bytes_per_group + 1);
                        }),
               "precondition");
}

TEST_F(DispatchTest, WaveCyclesPricesAllEventKinds) {
  WaveCost c;
  c.valu_instructions = 10;
  c.salu_instructions = 4;
  c.mem_instructions = 2;
  c.mem_transactions = 3;
  c.atomic_instructions = 1;
  c.atomic_extra_serializations = 2;
  c.barriers = 1;
  const double cycles = wave_cycles(cfg, c, 100.0);
  const double expected = 10 * cfg.cpi_valu + 4 * cfg.cpi_salu +
                          2 * (cfg.cpi_valu + 100.0) +
                          3 * bandwidth_cost(cfg) +
                          1 * cfg.atomic_base_cycles +
                          2 * cfg.atomic_conflict_cycles + cfg.barrier_cycles;
  EXPECT_DOUBLE_EQ(cycles, expected);
}

}  // namespace
}  // namespace gcg::simgpu
