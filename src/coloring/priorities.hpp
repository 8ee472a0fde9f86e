// Per-vertex priorities for independent-set selection. The baseline uses a
// hash of the vertex id (what the paper's kernels do); the degree-biased
// mode implements the largest-degree-first heuristic, which trades a few
// extra iterations for fewer colors on skewed graphs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace gcg {

enum class PriorityMode {
  kRandom,       ///< priority = hash(seed, v)
  kDegreeBiased, ///< high degree wins ties toward earlier coloring
  kNaturalOrder, ///< lower vertex id = higher priority. Jones–Plassmann
                 ///< selection under this order reproduces sequential
                 ///< first-fit greedy in natural order exactly (any
                 ///< schedule/thread count), at the cost of longer
                 ///< dependency chains than random priorities.
};

const char* priority_mode_name(PriorityMode m);
/// Inverse of priority_mode_name; throws std::invalid_argument on unknown.
PriorityMode priority_mode_from_name(const std::string& name);

/// Per-vertex priorities. `rank`, when given, is each vertex's position in
/// a visit order (graph/reorder.hpp's perm): every mode then reads rank[v]
/// where it would read v, so the result equals make_priorities over the
/// relabeled graph, indexed through rank. Empty = the identity.
std::vector<std::uint32_t> make_priorities(const Csr& g, PriorityMode mode,
                                           std::uint64_t seed,
                                           std::span<const vid_t> rank = {});

/// Strict total order used everywhere ties must break deterministically:
/// (priority, vertex id) lexicographic.
inline bool priority_less(std::uint32_t pa, vid_t a, std::uint32_t pb, vid_t b) {
  return pa < pb || (pa == pb && a < b);
}

}  // namespace gcg
