#include "simgpu/persistent.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gcg::simgpu {
namespace {

class PersistentTest : public ::testing::Test {
 protected:
  DeviceConfig cfg = test_device();  // 4 CUs
  PersistentOptions opts;            // 4 waves/CU -> 16 workers
};

TEST_F(PersistentTest, AllWorkersRunUntilDone) {
  std::vector<int> steps(16, 0);
  const auto r = run_persistent(cfg, opts, [&](unsigned id, Wave& w) {
    w.valu(Mask::full(8));
    if (++steps[id] == 3) return StepStatus::kDone;
    return StepStatus::kWorked;
  });
  for (int s : steps) EXPECT_EQ(s, 3);
  EXPECT_EQ(r.wave_clock.size(), 16u);
  for (auto sw : r.steps_worked) EXPECT_EQ(sw, 2u);  // last step was kDone
}

TEST_F(PersistentTest, EarliestClockWorkerStepsNext) {
  // Worker 0 does heavy steps; others light. The executor must interleave
  // such that light workers complete many steps while worker 0 does few.
  std::vector<int> steps(16, 0);
  std::vector<unsigned> order;
  run_persistent(cfg, opts, [&](unsigned id, Wave& w) {
    order.push_back(id);
    w.valu(Mask::full(8), id == 0 ? 1000.0 : 1.0);
    if (++steps[id] == 5) return StepStatus::kDone;
    return StepStatus::kWorked;
  });
  // After worker 0's first heavy step, all light workers finish all their
  // steps before worker 0 steps again.
  int zero_steps_in_first_half = 0;
  for (std::size_t i = 0; i < order.size() / 2; ++i) {
    zero_steps_in_first_half += (order[i] == 0);
  }
  EXPECT_LE(zero_steps_in_first_half, 2);
}

TEST_F(PersistentTest, IdleStepsChargeIdleCycles) {
  int calls = 0;
  const auto r = run_persistent(cfg, opts, [&](unsigned, Wave&) {
    ++calls;
    return calls <= 16 ? StepStatus::kIdle : StepStatus::kDone;
  });
  std::uint64_t idles = 0;
  for (auto i : r.steps_idle) idles += i;
  EXPECT_EQ(idles, 16u);
  double clock_sum = 0;
  for (double c : r.wave_clock) clock_sum += c;
  EXPECT_GE(clock_sum, 16 * opts.idle_cycles);
}

TEST_F(PersistentTest, MakespanIsMaxClockPlusOverhead) {
  const auto r = run_persistent(cfg, opts, [&](unsigned id, Wave& w) {
    w.valu(Mask::full(8), id == 3 ? 777.0 : 1.0);
    return StepStatus::kDone;
  });
  double max_clock = 0;
  for (double c : r.wave_clock) max_clock = std::max(max_clock, c);
  EXPECT_DOUBLE_EQ(r.makespan_cycles, max_clock + cfg.kernel_launch_cycles);
}

TEST_F(PersistentTest, WorkerLaneIdsAreDistinct) {
  std::vector<std::uint32_t> first_ids;
  run_persistent(cfg, opts, [&](unsigned, Wave& w) {
    first_ids.push_back(w.global_ids()[0]);
    return StepStatus::kDone;
  });
  std::sort(first_ids.begin(), first_ids.end());
  EXPECT_EQ(std::unique(first_ids.begin(), first_ids.end()), first_ids.end());
}

TEST_F(PersistentTest, MaxStepsSafetyValveAborts) {
  PersistentOptions bounded = opts;
  bounded.max_steps = 10;
  EXPECT_DEATH(run_persistent(cfg, bounded,
                              [&](unsigned, Wave&) { return StepStatus::kIdle; }),
               "max_steps");
}

TEST_F(PersistentTest, BusyHintControlsLatencyPricing) {
  // Few queued chunks = few waves with requests in flight = less latency
  // hiding. The hint must raise the exposed-latency price accordingly.
  auto one_shot = [&](std::uint64_t hint) {
    PersistentOptions o = opts;
    o.busy_waves_hint = hint;
    return run_persistent(cfg, o, [&](unsigned, Wave& w) {
      w.valu(Mask::full(8));
      return StepStatus::kDone;
    });
  };
  const auto starved = one_shot(1);       // one busy wave total
  const auto full = one_shot(0);          // 0 = all resident waves busy
  EXPECT_GT(starved.mem_latency_cost, full.mem_latency_cost);
  EXPECT_DOUBLE_EQ(starved.mem_latency_cost, cfg.mem_latency_cycles);
}

TEST_F(PersistentTest, CachePointerReachesSteps) {
  CacheSim cache(cfg.l2_bytes, cfg.cacheline_bytes, cfg.l2_ways);
  PersistentOptions o = opts;
  o.cache = &cache;
  std::vector<std::uint32_t> mem(64, 1);
  run_persistent(cfg, o, [&](unsigned, Wave& w) {
    w.load_uniform(std::span<const std::uint32_t>(mem), 0);
    return StepStatus::kDone;
  });
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 15u);  // 16 workers, same line
}

TEST_F(PersistentTest, FreshCostCountersEachStep) {
  run_persistent(cfg, opts, [&](unsigned, Wave& w) {
    EXPECT_DOUBLE_EQ(w.cost().valu_instructions, 0.0);
    w.valu(Mask::full(8), 5.0);
    return StepStatus::kDone;
  });
}

}  // namespace
}  // namespace gcg::simgpu
