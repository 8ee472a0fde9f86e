// Native speculative greedy coloring (Gebremedhin–Manne): every active
// vertex optimistically takes its first-fit color against the *live* color
// array (benign read races, made well-defined with relaxed atomics), then
// a conflict-detection pass uncolors the lower-priority endpoint of every
// monochromatic edge and re-activates it for the next round.
//
// Both passes of a round sweep [0, n) in edge-balanced chunks
// (ThreadPool::parallel_for_edges over the CSR row offsets, the paper's
// load-imbalance fix): each chunk carries a comparable number of edges, so
// a high-degree vertex gets a chunk of its own instead of pinning a worker
// behind a run of them. The frontier is a round stamp per vertex: v is
// active iff active[v] == round.
//
// On one thread the chunks run in ascending order and the speculation
// pass sees every earlier assignment, so no conflicts ever arise and the
// result is exactly sequential first-fit greedy in natural order.
#include <algorithm>

#include "par/detail/driver.hpp"
#include "util/sync.hpp"

namespace gcg::par::detail {

namespace {

/// Edge weight per chunk that cuts n vertices into as many chunks as
/// kGrain-vertex chunks would make, with boundaries moved so every chunk
/// carries a comparable number of edges.
std::uint64_t edge_grain(std::uint64_t arcs, std::uint32_t n) {
  const std::uint64_t chunks =
      std::max<std::uint64_t>(1, (n + kGrain - 1) / kGrain);
  return std::max<std::uint64_t>(1, (arcs + chunks - 1) / chunks);
}

}  // namespace

void run_speculative(DriverState& st) {
  const vid_t n = st.g.num_vertices();
  if (n == 0) return;
  // Each worker allocates its own scratch, so one worker's mask never
  // shares a cache line with another's; the barrier publishes the pointers.
  std::vector<std::unique_ptr<FirstFitScratch>> scratch(st.pool.size());
  st.pool.run([&](unsigned w) {
    scratch[w] = std::make_unique<FirstFitScratch>(st.g.max_degree());
  });
  std::uint32_t round = 1;
  std::vector<std::uint32_t> active(n, round);
  const std::uint64_t* offsets = st.g.row_offsets().data();
  const std::uint64_t grain = edge_grain(st.g.num_arcs(), n);
  std::uint32_t remaining = n;

  while (remaining > 0 && !cancel_requested(st)) {
    GCG_ASSERT(st.run.iterations < kMaxRounds);
    ++st.run.iterations;

    // Pass 1: speculative first-fit against live colors.
    st.pool.parallel_for_edges(
        n, offsets, grain, [&](std::uint32_t b, std::uint32_t e, unsigned w) {
          ParWorkerStats& ws = st.run.workers[w];
          BusyTimer timer(ws);
          std::uint64_t seen = 0;
          for (vid_t v = b; v < e; ++v) {
            if (active[v] != round) continue;
            store_color(st.colors[v],
                        scratch[w]->first_fit(st.g, st.colors, v));
            ++seen;
          }
          ws.vertices += seen;
        });

    // Pass 2: detect monochromatic edges; the lower-priority endpoint
    // reverts its speculation and stays active. Uncoloring in place is
    // safe: a loser that uncolors early only makes neighbours' conflicts
    // disappear, never appear.
    sync::atomic<std::uint32_t> survivors{0};
    st.pool.parallel_for_edges(
        n, offsets, grain, [&](std::uint32_t b, std::uint32_t e, unsigned w) {
          BusyTimer timer(st.run.workers[w]);
          std::uint32_t kept = 0;
          for (vid_t v = b; v < e; ++v) {
            if (active[v] != round) continue;
            const color_t cv = load_color(st.colors[v]);
            for (vid_t u : st.g.neighbors(v)) {
              if (load_color(st.colors[u]) == cv &&
                  priority_less(st.prio[v], v, st.prio[u], u)) {
                store_color(st.colors[v], kUncolored);
                active[v] = round + 1;
                ++kept;
                break;
              }
            }
          }
          // order: relaxed — count aggregation; read after the barrier.
          if (kept > 0) survivors.fetch_add(kept, std::memory_order_relaxed);
        });
    // order: relaxed — the pool barrier ordered the fetch_adds above.
    remaining = survivors.load(std::memory_order_relaxed);
    ++round;
  }
}

}  // namespace gcg::par::detail
