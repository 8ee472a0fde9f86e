#include "util/simd.hpp"

#include <cstdlib>

#include "util/sync.hpp"

// The only translation unit allowed to include <immintrin.h> (lint rule
// `raw-simd`). AVX2 bodies carry a per-function target attribute instead
// of a global -mavx2 flag, so the rest of the binary stays baseline
// x86-64 and the scalar fallback genuinely runs on pre-AVX2 hardware.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GCG_SIMD_X86 1
#include <immintrin.h>
#else
#define GCG_SIMD_X86 0
#endif

namespace gcg::simd {

namespace {

constexpr int kUnset = -1;

/// Cached dispatch level; kUnset until the first active_level() call.
/// Tests may overwrite it concurrently with idle pool threads reading it,
/// so it is atomic; there is no ordering requirement beyond the value.
sync::atomic<int>& level_cache() {
  static sync::atomic<int> cache{kUnset};
  return cache;
}

std::size_t first_not_full_word_scalar(const std::uint64_t* words,
                                       std::size_t nwords) {
  for (std::size_t k = 0; k < nwords; ++k) {
    if (words[k] != ~std::uint64_t{0}) return k;
  }
  return nwords;
}

#if GCG_SIMD_X86

__attribute__((target("avx2"))) std::size_t first_not_full_word_avx2(
    const std::uint64_t* words, std::size_t nwords) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t k = 0;
  for (; k + 4 <= nwords; k += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + k));
    // Lane = all-ones where the word is saturated; any 0 lane in the
    // movemask marks the first word with a free color bit.
    const int full = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, ones)));
    if (full != 0xF) {
      for (std::size_t j = 0; j < 4; ++j) {
        if (words[k + j] != ~std::uint64_t{0}) return k + j;
      }
    }
  }
  for (; k < nwords; ++k) {
    if (words[k] != ~std::uint64_t{0}) return k;
  }
  return nwords;
}

__attribute__((target("avx2"))) void clear_words_avx2(std::uint64_t* words,
                                                      std::size_t nwords) {
  const __m256i zero = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 4 <= nwords; k += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(words + k), zero);
  }
  for (; k < nwords; ++k) words[k] = 0;
}

#endif  // GCG_SIMD_X86

}  // namespace

Level detect_level() {
  const char* force = std::getenv("GCG_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Level::kScalar;
  }
#if GCG_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level active_level() {
  // order: relaxed — the cached int is a pure value (no data published
  // through it); every path it selects computes identical results.
  int lvl = level_cache().load(std::memory_order_relaxed);
  if (lvl == kUnset) {
    lvl = static_cast<int>(detect_level());  // lint: allow(raw-narrow) enum -> underlying int
    // order: relaxed — racing first calls all store the same value.
    level_cache().store(lvl, std::memory_order_relaxed);
  }
  return static_cast<Level>(lvl);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
    default:
      return "scalar";
  }
}

void force_level_for_testing(Level level) {
  const Level cap = detect_level();
  // lint: allow-next-line(raw-narrow) enum -> underlying int ordering compare
  if (static_cast<int>(level) > static_cast<int>(cap)) level = cap;
  // order: relaxed — see active_level(); the level is a pure value.
  // lint: allow-next-line(raw-narrow) enum -> underlying int
  level_cache().store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_level_override_for_testing() {
  // order: relaxed — see active_level().
  level_cache().store(kUnset, std::memory_order_relaxed);
}

std::size_t first_not_full_word(const std::uint64_t* words,
                                std::size_t nwords) {
#if GCG_SIMD_X86
  if (active_level() == Level::kAvx2 && nwords >= 4) {
    return first_not_full_word_avx2(words, nwords);
  }
#endif
  return first_not_full_word_scalar(words, nwords);
}

void clear_words(std::uint64_t* words, std::size_t nwords) {
#if GCG_SIMD_X86
  if (active_level() == Level::kAvx2 && nwords >= 4) {
    clear_words_avx2(words, nwords);
    return;
  }
#endif
  for (std::size_t k = 0; k < nwords; ++k) words[k] = 0;
}

}  // namespace gcg::simd
