#include "simgpu/lanevec.hpp"

#include <gtest/gtest.h>

namespace gcg::simgpu {
namespace {

TEST(Mask, FullAndNone) {
  EXPECT_EQ(Mask::none().count(), 0u);
  EXPECT_FALSE(Mask::none().any());
  EXPECT_EQ(Mask::full(8).count(), 8u);
  EXPECT_EQ(Mask::full(64).count(), 64u);
  EXPECT_EQ(Mask::full(64).bits(), ~std::uint64_t{0});
}

TEST(Mask, SetClearTest) {
  Mask m;
  m.set(3);
  m.set(63);
  EXPECT_TRUE(m.test(3));
  EXPECT_TRUE(m.test(63));
  EXPECT_FALSE(m.test(4));
  EXPECT_EQ(m.count(), 2u);
  m.clear(3);
  EXPECT_FALSE(m.test(3));
  EXPECT_EQ(m.count(), 1u);
}

TEST(Mask, BitwiseOps) {
  const Mask a(0b1100), b(0b1010);
  EXPECT_EQ((a & b).bits(), 0b1000u);
  EXPECT_EQ((a | b).bits(), 0b1110u);
  EXPECT_EQ((a ^ b).bits(), 0b0110u);
  EXPECT_EQ(a.andnot(b).bits(), 0b0100u);
}

TEST(Mask, FirstFindsLowestLane) {
  EXPECT_EQ(Mask(0b1000).first(), 3u);
  EXPECT_EQ(Mask::lane(17).first(), 17u);
}

TEST(Mask, CompoundAssignment) {
  Mask m(0b0110);
  m &= Mask(0b0011);
  EXPECT_EQ(m.bits(), 0b0010u);
  m |= Mask(0b1000);
  EXPECT_EQ(m.bits(), 0b1010u);
}

TEST(Vec, SplatAndIndex) {
  const auto v = Vec<int>::splat(7);
  for (unsigned i = 0; i < kMaxLanes; ++i) EXPECT_EQ(v[i], 7);
  Vec<int> w;
  w[5] = 42;
  EXPECT_EQ(w[5], 42);
  EXPECT_EQ(w[4], 0);  // zero-initialized aggregate
}

TEST(Where, FiltersByPredicateAndMask) {
  Vec<int> v;
  for (unsigned i = 0; i < 8; ++i) v[i] = static_cast<int>(i);
  const Mask active = Mask::full(8);
  const Mask evens = where(v, active, [](int x) { return x % 2 == 0; });
  EXPECT_EQ(evens.bits(), 0b01010101u);
  // Inactive lanes never pass, even if the predicate would hold.
  const Mask limited = where(v, Mask(0b11), [](int) { return true; });
  EXPECT_EQ(limited.bits(), 0b11u);
}

TEST(Where2, ComparesTwoVectors) {
  Vec<int> a, b;
  for (unsigned i = 0; i < 4; ++i) {
    a[i] = static_cast<int>(i);
    b[i] = 2;
  }
  const Mask lt = where2(a, b, Mask::full(4), [](int x, int y) { return x < y; });
  EXPECT_EQ(lt.bits(), 0b0011u);
}

}  // namespace
}  // namespace gcg::simgpu
