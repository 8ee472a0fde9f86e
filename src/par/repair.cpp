#include "par/repair.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "coloring/priorities.hpp"
#include "par/detail/driver.hpp"
#include "util/expect.hpp"
#include "util/rng.hpp"

namespace gcg::par {

namespace {

/// True if v is uncolored or shares its color with any neighbour.
bool needs_fix(const Csr& g, std::span<const color_t> colors, vid_t v) {
  const color_t c = colors[v];
  if (c == kUncolored) return true;
  for (vid_t u : g.neighbors(v)) {
    if (colors[u] == c) return true;
  }
  return false;
}

}  // namespace

RepairRun repair_subset(const Csr& g, std::span<color_t> colors,
                        std::span<const vid_t> subset,
                        const RepairOptions& opts) {
  GCG_EXPECT(colors.size() == g.num_vertices());
  const auto t0 = std::chrono::steady_clock::now();
  RepairRun run;

  const CounterHash prio(opts.seed);
  // Candidate set: subset members that still need a new color. The
  // membership bytes are graph-sized so the winner test is O(degree).
  std::vector<std::uint8_t> candidate(g.num_vertices(), 0);
  std::vector<vid_t> frontier;
  frontier.reserve(subset.size());
  for (vid_t v : subset) {
    GCG_EXPECT(v < g.num_vertices());
    if (!candidate[v] && needs_fix(g, colors, v)) {
      candidate[v] = 1;
      frontier.push_back(v);
    }
  }
  std::sort(frontier.begin(), frontier.end());

  std::vector<vid_t> winners;
  detail::FirstFitScratch scratch(g.max_degree());
  while (!frontier.empty() && run.rounds < opts.max_rounds) {
    ++run.rounds;

    // Winners: candidates maximal under (hash, id) among their candidate
    // neighbours — an independent set, so the order they recolor in does
    // not change the outcome.
    winners.clear();
    for (vid_t v : frontier) {
      const std::uint32_t pv = prio.u32(v);
      bool wins = true;
      for (vid_t u : g.neighbors(v)) {
        if (candidate[u] && priority_less(pv, v, prio.u32(u), u)) {
          wins = false;
          break;
        }
      }
      if (wins) winners.push_back(v);
    }

    for (vid_t v : winners) colors[v] = scratch.first_fit(g, colors, v);
    run.recolored += winners.size();

    // A recolored vertex avoids every current neighbour color, so it is
    // done for good; survivors re-test because a neighbour's move may
    // have cleared (or been) their conflict.
    for (vid_t v : winners) candidate[v] = 0;
    std::vector<vid_t> next;
    next.reserve(frontier.size());
    for (vid_t v : frontier) {
      if (!candidate[v]) continue;
      if (needs_fix(g, colors, v)) {
        next.push_back(v);
      } else {
        candidate[v] = 0;
      }
    }
    frontier.swap(next);
  }

  run.remaining_conflicts = frontier.size();
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return run;
}

}  // namespace gcg::par
