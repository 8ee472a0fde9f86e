// Native speculative greedy coloring (Gebremedhin–Manne): every frontier
// vertex optimistically takes its first-fit color against the *live* color
// array (benign read races, made well-defined with relaxed atomics), then
// a conflict-detection pass uncolors the lower-priority endpoint of every
// monochromatic edge and re-enqueues it. On one thread the speculation
// pass sees every earlier assignment, so no conflicts ever arise and the
// result is exactly sequential first-fit greedy in worklist order (the
// hub path is off on one thread, so the order stays natural).
//
// Scheduling is degree-aware (see detail/frontier.hpp): the frontier is
// chunked by cumulative edge count (kGrain vertices' worth per chunk),
// vertices above the hub threshold are speculated and conflict-checked
// cooperatively by the whole team, and the frontier itself switches
// between a bitmap and a compacted worklist with density.
#include "par/detail/frontier.hpp"

namespace gcg::par::detail {

void run_speculative(DriverState& st) {
  const vid_t n = st.g.num_vertices();
  if (n == 0) return;
  const SchedulePlan plan = make_plan(st.g, st.pool.size());
  FrontierExec frontier(st, plan);
  // Each worker constructs (first-touches) its own scratch so forbidden
  // masks live on the worker's node; the barrier publishes the pointers.
  std::vector<std::unique_ptr<FirstFitScratch>> scratch(st.pool.size());
  st.pool.run([&](unsigned w) {
    scratch[w] = std::make_unique<FirstFitScratch>(st.g.max_degree());
  });
  HubScratch hub_scratch(st.g.max_degree(), st.pool.size());

  while (frontier.active() > 0 && !cancel_requested(st)) {
    GCG_ASSERT(st.run.iterations < st.opts.max_iterations);
    ++st.run.iterations;

    // Phase 1: speculative first-fit against live colors. A hub first-fits
    // cooperatively — the team builds one shared forbidden mask instead of
    // one worker walking a giant neighbour list alone.
    frontier.phase(
        [&](vid_t v, unsigned w) {
          store_color(st.colors[v], scratch[w]->first_fit(st.g, st.colors.cspan(), v,
                                                          st.stamp_hint(v)));
        },
        [&](vid_t v) {
          store_color(st.colors[v], coop_first_fit(st, hub_scratch, v));
        });

    // Phase 2: detect monochromatic edges; the lower-priority endpoint
    // reverts its speculation and re-enters the frontier. Uncoloring in
    // place is safe: a loser that uncolors early only makes neighbours'
    // conflicts disappear, never appear.
    frontier.rebuild(
        [&](vid_t v, unsigned) {
          const color_t cv = load_color(st.colors[v]);
          for (vid_t u : st.g.neighbors(v)) {
            if (load_color(st.colors[u]) == cv &&
                priority_less(st.prio[v], v, st.prio[u], u)) {
              store_color(st.colors[v], kUncolored);
              return true;
            }
          }
          return false;
        },
        [&](vid_t v) {
          const color_t cv = load_color(st.colors[v]);
          const bool lost = coop_exists(st, v, [&](vid_t u) {
            return load_color(st.colors[u]) == cv &&
                   priority_less(st.prio[v], v, st.prio[u], u);
          });
          if (lost) store_color(st.colors[v], kUncolored);
          return lost;
        });
  }
}

}  // namespace gcg::par::detail
