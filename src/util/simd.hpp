// Runtime-dispatched SIMD kernels for the 64-bit forbidden-color bitsets
// used by the first-fit scans in src/par/. This is the one sanctioned home
// for CPU-specific vector code: tools/lint/gcg_lint.py (rule `raw-simd`)
// bans <immintrin.h> and raw intrinsics everywhere else, so every caller
// goes through this seam and automatically gets the scalar fallback on
// hardware (or builds) without AVX2.
//
// Dispatch is resolved once per process from cpuid, with two overrides:
//  * GCG_FORCE_SCALAR=1 in the environment pins the scalar path (useful
//    for benchmarking the vector win and for debugging);
//  * force_level_for_testing() pins a level in-process so tests can run
//    both paths on identical inputs and assert bit-identical results.
//
// The kernels operate on plain uint64_t words and are purely word-level
// (clear, first-not-full-word search). They deliberately do NOT touch
// per-vertex color loads: neighbour colors are read through relaxed
// std::atomic_ref (benign-race contract of the speculative kernel), and a
// vector gather would turn those into non-atomic racy loads.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gcg::simd {

/// Instruction-set level a kernel call may use. Levels are totally
/// ordered; kAvx2 implies everything kScalar can do.
enum class Level : int {
  kScalar = 0,  ///< portable C++ (always available)
  kAvx2 = 1,    ///< 256-bit integer SIMD (x86-64, runtime-detected)
};

/// Best level supported by this process: cpuid capped by the
/// GCG_FORCE_SCALAR environment override. Computed once and cached.
Level active_level();

/// Re-detects from cpuid + environment, ignoring the cache and any test
/// override. Exposed so tests can assert detection logic directly.
Level detect_level();

/// Human-readable name ("scalar", "avx2") for stats and bench output.
const char* level_name(Level level);

/// Pins active_level() to `level` (capped at detect_level() — forcing a
/// level the CPU lacks silently degrades to the best supported one, so a
/// test matrix over all levels is portable). Test-only.
void force_level_for_testing(Level level);

/// Removes the force_level_for_testing() override.
void clear_level_override_for_testing();

/// Index of the first word in words[0..nwords) that is != ~0 (i.e. that
/// still has a zero bit), or nwords if every word is saturated.
std::size_t first_not_full_word(const std::uint64_t* words,
                                std::size_t nwords);

/// words[0..nwords) = 0.
void clear_words(std::uint64_t* words, std::size_t nwords);

}  // namespace gcg::simd
