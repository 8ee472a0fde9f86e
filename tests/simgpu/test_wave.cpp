#include "simgpu/wave.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "simgpu/config.hpp"

namespace gcg::simgpu {
namespace {

class WaveTest : public ::testing::Test {
 protected:
  DeviceConfig cfg = tahiti();  // 64-lane, 64B lines
  Wave make_wave(std::uint64_t first = 0, std::uint64_t grid = 1024) {
    return Wave(cfg, first, cfg.wavefront_size, grid);
  }
};

TEST_F(WaveTest, IdentityAndValidMask) {
  Wave w = make_wave(128, 160);
  EXPECT_EQ(w.width(), 64u);
  EXPECT_EQ(w.global_ids()[0], 128u);
  EXPECT_EQ(w.global_ids()[63], 191u);
  // Grid ends at 160: lanes 0..31 valid, rest not.
  EXPECT_EQ(w.valid().count(), 32u);
  EXPECT_TRUE(w.valid().test(31));
  EXPECT_FALSE(w.valid().test(32));
}

TEST_F(WaveTest, ValuChargesInstructionsAndLaneOps) {
  Wave w = make_wave();
  w.valu(Mask::full(64), 2.0);
  w.valu(Mask(0b1), 1.0);  // single active lane: full instruction issued
  EXPECT_DOUBLE_EQ(w.cost().valu_instructions, 3.0);
  EXPECT_DOUBLE_EQ(w.cost().valu_lane_ops, 2.0 * 64 + 1.0);
  EXPECT_NEAR(simd_efficiency(w.cost(), 64), (128.0 + 1.0) / (3 * 64), 1e-12);
}

TEST_F(WaveTest, CoalescedLoadIsFewTransactions) {
  std::vector<std::uint32_t> mem(1024);
  std::iota(mem.begin(), mem.end(), 0u);
  Wave w = make_wave();
  Vec<std::uint32_t> idx;
  for (unsigned i = 0; i < 64; ++i) idx[i] = i;  // consecutive words
  const auto out = w.load(std::span<const std::uint32_t>(mem), idx, Mask::full(64));
  EXPECT_EQ(out[13], 13u);
  // 64 lanes x 4B = 256B = 4 lines of 64B.
  EXPECT_EQ(w.cost().mem_transactions, 4u);
  EXPECT_EQ(w.cost().mem_instructions, 1u);
}

TEST_F(WaveTest, ScatteredLoadIsOneTransactionPerLane) {
  std::vector<std::uint32_t> mem(65536, 5);
  Wave w = make_wave();
  Vec<std::uint32_t> idx;
  for (unsigned i = 0; i < 64; ++i) idx[i] = i * 1024;  // distinct lines
  w.load(std::span<const std::uint32_t>(mem), idx, Mask::full(64));
  EXPECT_EQ(w.cost().mem_transactions, 64u);
}

TEST_F(WaveTest, SameLineLanesShareTransaction) {
  std::vector<std::uint32_t> mem(64, 9);
  Wave w = make_wave();
  const auto idx = Vec<std::uint32_t>::splat(3);  // all lanes same address
  const auto out = w.load(std::span<const std::uint32_t>(mem), idx, Mask::full(64));
  EXPECT_EQ(out[50], 9u);
  EXPECT_EQ(w.cost().mem_transactions, 1u);
}

TEST_F(WaveTest, InactiveLanesLoadNothing) {
  std::vector<std::uint32_t> mem(64, 7);
  Wave w = make_wave();
  Vec<std::uint32_t> idx = Vec<std::uint32_t>::splat(0);
  const auto out = w.load(std::span<const std::uint32_t>(mem), idx, Mask(0b10));
  EXPECT_EQ(out[1], 7u);
  EXPECT_EQ(out[0], 0u);  // untouched default
}

TEST_F(WaveTest, StoreWritesOnlyActiveLanes) {
  std::vector<int> mem(64, -1);
  Wave w = make_wave();
  Vec<std::uint32_t> idx;
  for (unsigned i = 0; i < 64; ++i) idx[i] = i;
  w.store(std::span<int>(mem), idx, Vec<int>::splat(5), Mask(0b101));
  EXPECT_EQ(mem[0], 5);
  EXPECT_EQ(mem[1], -1);
  EXPECT_EQ(mem[2], 5);
}

TEST_F(WaveTest, StoreCollisionHigherLaneWins) {
  std::vector<int> mem(4, 0);
  Wave w = make_wave();
  const auto idx = Vec<std::uint32_t>::splat(2);
  Vec<int> val;
  for (unsigned i = 0; i < 64; ++i) val[i] = static_cast<int>(i);
  w.store(std::span<int>(mem), idx, val, Mask::full(64));
  EXPECT_EQ(mem[2], 63);
}

TEST_F(WaveTest, UniformAccessesCostOneTransaction) {
  std::vector<double> mem(16, 2.5);
  Wave w = make_wave();
  EXPECT_DOUBLE_EQ(w.load_uniform(std::span<const double>(mem), 3), 2.5);
  w.store_uniform(std::span<double>(mem), 4, 9.0);
  EXPECT_DOUBLE_EQ(mem[4], 9.0);
  EXPECT_EQ(w.cost().mem_transactions, 2u);
  EXPECT_EQ(w.cost().mem_instructions, 2u);
}

TEST_F(WaveTest, AtomicAndReturnsOldAndSerializesConflicts) {
  std::vector<std::uint32_t> mem(8, 0xffu);
  Wave w = make_wave();
  // 4 lanes on address 0, 2 lanes on address 1.
  Vec<std::uint32_t> idx;
  Mask m;
  for (unsigned i = 0; i < 4; ++i) {
    idx[i] = 0;
    m.set(i);
  }
  idx[4] = 1;
  idx[5] = 1;
  m.set(4);
  m.set(5);
  // Lane i clears bit i.
  Vec<std::uint32_t> val;
  for (unsigned i = 0; i < 6; ++i) val[i] = ~(1u << i);
  const auto old = w.atomic_and(std::span<std::uint32_t>(mem), idx, val, m);
  EXPECT_EQ(mem[0], 0xf0u);
  EXPECT_EQ(mem[1], 0xcfu);
  // Lane order semantics: each lane sees the clears of the lanes before it.
  EXPECT_EQ(old[0], 0xffu);
  EXPECT_EQ(old[3], 0xf8u);
  EXPECT_EQ(old[5], 0xefu);
  EXPECT_EQ(w.cost().atomic_instructions, 1u);
  // Extra serializations: (4-1) + (2-1) = 4.
  EXPECT_EQ(w.cost().atomic_extra_serializations, 4u);
}

TEST_F(WaveTest, AtomicAddUniform) {
  std::vector<std::uint32_t> counter(1, 10);
  Wave w = make_wave();
  EXPECT_EQ(w.atomic_add_uniform(std::span<std::uint32_t>(counter), 0, 5u), 10u);
  EXPECT_EQ(counter[0], 15u);
  EXPECT_EQ(w.cost().atomic_instructions, 1u);
}

TEST_F(WaveTest, RankWithinCompacts) {
  Wave w = make_wave();
  Mask m;
  m.set(3);
  m.set(10);
  m.set(40);
  const auto rank = w.rank_within(m);
  EXPECT_EQ(rank[3], 0u);
  EXPECT_EQ(rank[10], 1u);
  EXPECT_EQ(rank[40], 2u);
}

TEST_F(WaveTest, OutOfBoundsGatherAborts) {
  std::vector<std::uint32_t> mem(4, 0);
  Wave w = make_wave();
  const auto idx = Vec<std::uint32_t>::splat(4);  // == size: out of range
  EXPECT_DEATH(w.load(std::span<const std::uint32_t>(mem), idx, Mask(0b1)),
               "precondition");
}

TEST_F(WaveTest, PartialWidthWave) {
  Wave w(cfg, 0, 16, 1024);
  EXPECT_EQ(w.width(), 16u);
  EXPECT_EQ(w.valid().count(), 16u);
  w.valu(Mask::full(16));
  EXPECT_DOUBLE_EQ(w.cost().valu_lane_ops, 16.0);
}

}  // namespace
}  // namespace gcg::simgpu
