// gcg::simd dispatch seam: detection/override plumbing, and bit-identical
// results between the scalar kernels and whatever vector level the host
// supports (on a non-AVX2 host the forced level degrades to scalar and
// the identity checks become self-comparisons — still valid, just not
// informative, which is exactly the portable-matrix contract).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "util/simd.hpp"

namespace gcg {
namespace {

class SimdLevelGuard {
 public:
  ~SimdLevelGuard() { simd::clear_level_override_for_testing(); }
};

std::vector<simd::Level> levels_to_test() {
  std::vector<simd::Level> out = {simd::Level::kScalar};
  if (simd::detect_level() != simd::Level::kScalar) {
    out.push_back(simd::detect_level());
  }
  return out;
}

TEST(SimdLevelTest, NamesAreStable) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

TEST(SimdLevelTest, ForceIsCappedAtDetectedLevel) {
  SimdLevelGuard guard;
  simd::force_level_for_testing(simd::Level::kAvx2);
  EXPECT_LE(static_cast<int>(simd::active_level()),
            static_cast<int>(simd::detect_level()));
  simd::force_level_for_testing(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  simd::clear_level_override_for_testing();
  EXPECT_EQ(simd::active_level(), simd::detect_level());
}

TEST(SimdLevelTest, ForceScalarEnvironmentPinsDetection) {
  // detect_level() re-reads the environment on every call (only
  // active_level() caches), so the override is directly observable.
  ASSERT_EQ(setenv("GCG_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(simd::detect_level(), simd::Level::kScalar);
  ASSERT_EQ(setenv("GCG_FORCE_SCALAR", "0", 1), 0);
  const simd::Level unforced = simd::detect_level();
  ASSERT_EQ(unsetenv("GCG_FORCE_SCALAR"), 0);
  EXPECT_EQ(simd::detect_level(), unforced);
}

// --- kernel identity: every level must agree with scalar bit-for-bit -------

TEST(SimdKernelTest, FirstNotFullWordMatchesScalarEverywhere) {
  SimdLevelGuard guard;
  std::mt19937_64 rng(42);
  // Every (size, position) pair through 3 vector blocks plus the tail,
  // with random saturated prefixes: position `pos` is the answer iff all
  // words below it are ~0.
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 13u, 64u}) {
    std::vector<std::uint64_t> words(n, ~0ull);
    for (std::size_t pos = 0; pos <= n; ++pos) {
      for (std::size_t i = 0; i < n; ++i) {
        words[i] = i < pos ? ~0ull : (i == pos ? rng() | 1ull : rng());
      }
      if (pos < n) words[pos] &= ~(1ull << (rng() % 64));  // ensure a hole
      std::size_t expect = 0;
      simd::force_level_for_testing(simd::Level::kScalar);
      expect = simd::first_not_full_word(words.data(), n);
      for (simd::Level lvl : levels_to_test()) {
        simd::force_level_for_testing(lvl);
        EXPECT_EQ(simd::first_not_full_word(words.data(), n), expect)
            << "n=" << n << " pos=" << pos << " level="
            << simd::level_name(lvl);
      }
    }
  }
}

TEST(SimdKernelTest, ClearMatchesScalarOnRandomBuffers) {
  SimdLevelGuard guard;
  std::mt19937_64 rng(7);
  for (std::size_t n : {0u, 1u, 3u, 4u, 6u, 8u, 11u, 16u, 33u}) {
    for (simd::Level lvl : levels_to_test()) {
      simd::force_level_for_testing(lvl);
      std::vector<std::uint64_t> buf(n);
      for (auto& w : buf) w = rng();
      simd::clear_words(buf.data(), n);
      EXPECT_EQ(buf, std::vector<std::uint64_t>(n, 0))
          << "n=" << n << " level=" << simd::level_name(lvl);
    }
  }
}

}  // namespace
}  // namespace gcg
