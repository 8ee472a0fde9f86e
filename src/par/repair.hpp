// Conflict repair on a vertex subset — the speculative color/detect/
// repair primitive (Rokos et al.) factored out so callers other than the
// full colorings can drive it: the shard worker recolors cross-shard
// conflict losers against ghost colors, and the shard coordinator uses
// it as the bounded-round fallback on whatever conflicts survive.
//
// Only vertices in the subset are ever recolored; everything else is
// frozen. Vertices colored kUncolored (inside or outside the subset)
// impose no constraint. The fix order is Jones–Plassmann style — per
// round, every conflicted subset vertex that wins the (hash, id)
// priority among its conflicted subset neighbours recolors first-fit —
// so the result depends only on (graph, colors, subset, seed). A vertex
// that recolors can never become conflicted again within the same call
// (winners avoid the current colors of ALL neighbours and no two
// adjacent vertices recolor in the same round), so rounds are bounded by
// the longest decreasing priority path through the subset — a handful in
// practice.
#pragma once

#include <cstdint>
#include <span>

#include "coloring/common.hpp"
#include "graph/csr.hpp"

namespace gcg::par {

struct RepairOptions {
  std::uint64_t seed = 1;      ///< priority hash seed (losers-first order)
  unsigned max_rounds = 4096;  ///< safety cap; hit only on adversarial input
};

struct RepairRun {
  unsigned rounds = 0;             ///< detect/repair rounds executed
  std::uint64_t recolored = 0;     ///< subset vertices assigned a new color
  /// Conflicted subset vertices left when max_rounds was exhausted
  /// (0 on every normal return).
  std::uint64_t remaining_conflicts = 0;
  double wall_ms = 0.0;
};

/// Recolors members of `subset` until no subset vertex shares a color
/// with any neighbour. `colors` is modified in place and must have
/// g.num_vertices() entries; `subset` entries must be valid vertex ids
/// (duplicates are tolerated).
RepairRun repair_subset(const Csr& g, std::span<color_t> colors,
                        std::span<const vid_t> subset,
                        const RepairOptions& opts = {});

}  // namespace gcg::par
