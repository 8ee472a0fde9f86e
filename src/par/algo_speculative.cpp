// Native speculative greedy coloring (Gebremedhin–Manne): every active
// vertex optimistically takes its first-fit color against the *live* color
// array (benign read races, made well-defined with relaxed atomics), then
// a conflict-detection pass uncolors the lower-priority endpoint of every
// monochromatic edge and re-activates it for the next round.
//
// Both passes of a round sweep the visit positions [0, n) in
// edge-balanced chunks (ThreadPool::parallel_for_edges over the running
// degree sum of the visit sequence, the paper's load-imbalance fix): each
// chunk carries a comparable number of edges, so a high-degree vertex
// gets a chunk of its own instead of pinning a worker behind a run of
// them. In the natural order that sum is the CSR's own row offsets; in
// any other it is exactly the row offsets the relabeled graph would
// have, so the chunks fall where they would on that copy. The frontier is
// a round stamp per position: visit[k] is active iff active[k] == round.
//
// On one thread the chunks run in ascending order and the speculation
// pass sees every earlier assignment, so no conflicts ever arise and the
// result is exactly sequential first-fit greedy in visit order.
#include "par/detail/driver.hpp"
#include "util/sync.hpp"

namespace gcg::par::detail {

void run_speculative(DriverState& st) {
  const vid_t n = st.g.num_vertices();
  if (n == 0) return;
  // Each worker allocates its own scratch, so one worker's mask never
  // shares a cache line with another's; the barrier publishes the pointers.
  std::vector<std::unique_ptr<FirstFitScratch>> scratch(st.pool.size());
  st.pool.run([&](unsigned w) {
    scratch[w] = std::make_unique<FirstFitScratch>(st.g.max_degree());
  });
  // Weights of the edge-balanced split: degree(visit[k]) summed over the
  // positions before k. Built only for an ordered run (O(n)).
  std::vector<eid_t> visit_offsets;
  const eid_t* offsets = st.g.row_offsets().data();
  if (!st.order.visit.empty()) {
    visit_offsets.resize(std::size_t{n} + 1);
    visit_offsets[0] = 0;
    for (vid_t k = 0; k < n; ++k) {
      visit_offsets[k + 1] = visit_offsets[k] + st.g.degree(st.order.visit[k]);
    }
    offsets = visit_offsets.data();
  }
  std::uint32_t round = 1;
  std::vector<std::uint32_t> active(n, round);
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
          for (vid_t k = b; k < e; ++k) {
            if (active[k] != round) continue;
            const vid_t v = st.order.vertex_at(k);
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
          for (vid_t k = b; k < e; ++k) {
            if (active[k] != round) continue;
            const vid_t v = st.order.vertex_at(k);
            const color_t cv = load_color(st.colors[v]);
            for (vid_t u : st.g.neighbors(v)) {
              if (load_color(st.colors[u]) == cv &&
                  st.priority_below(v, u)) {
                store_color(st.colors[v], kUncolored);
                active[k] = round + 1;
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
