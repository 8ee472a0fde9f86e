// Native parallel Jones–Plassmann–Luby: each round selects the vertices
// whose priority beats every uncolored neighbour (an independent set by
// construction of the strict total order) and commits them with first-fit.
// Colors are only read in the winner-flag phase and only written in the
// commit phase, and a committed vertex never has a committed neighbour in
// the same round — so the result is deterministic at any thread count,
// under any schedule, and with the hub path on or off: a hub's winner flag
// is the same exists-reduction the per-worker path computes, and its
// cooperative first-fit builds the same forbidden set (OR is commutative).
#include "par/detail/frontier.hpp"

namespace gcg::par::detail {

void run_jpl(DriverState& st) {
  const vid_t n = st.g.num_vertices();
  if (n == 0) return;
  const SchedulePlan plan = make_plan(st.g, st.pool.size());
  FrontierExec frontier(st, plan);
  FirstTouchArray<std::uint8_t> wins(st.pool, n, std::uint8_t{0});
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

    // Phase 1: winner flags against the stable color array.
    frontier.phase(
        [&](vid_t v, unsigned) {
          bool win = true;
          for (vid_t u : st.g.neighbors(v)) {
            if (load_color(st.colors[u]) == kUncolored &&
                !priority_less(st.prio[u], u, st.prio[v], v)) {
              win = false;
              break;
            }
          }
          wins[v] = win ? 1 : 0;
        },
        [&](vid_t v) {
          const bool beaten = coop_exists(st, v, [&](vid_t u) {
            return load_color(st.colors[u]) == kUncolored &&
                   !priority_less(st.prio[u], u, st.prio[v], v);
          });
          wins[v] = beaten ? 0 : 1;
        });

    // Phase 2: winners commit first-fit (their neighbours cannot be
    // winners, so the reads are stable); losers survive into next round.
    frontier.rebuild(
        [&](vid_t v, unsigned w) {
          if (!wins[v]) return true;
          store_color(st.colors[v], scratch[w]->first_fit(st.g, st.colors.cspan(), v,
                                                          st.stamp_hint(v)));
          return false;
        },
        [&](vid_t v) {
          if (!wins[v]) return true;
          store_color(st.colors[v], coop_first_fit(st, hub_scratch, v));
          return false;
        });
  }
}

}  // namespace gcg::par::detail
