// Native worklist max-min coloring, the mirror of the simulated
// Algorithm::kSteal's max-min schedule (Che et al.): each round colors
// the local maxima of the uncolored graph, then its local minima. The
// wire name `steal` is historical; no work is stolen here.
//
// Nothing rescans the uncolored graph per round. A count pass, the only
// pass that compares priorities, gives every vertex two counters:
// hi[v], its uncolored higher-priority neighbours, and lo[v], its
// uncolored lower-priority ones (a self loop counts as lower). A vertex
// is a local max when hi reaches 0 and a local min when lo does, so the
// worklists of the next round are built from the decrements that reach
// zero (the data-driven worklist of Chen et al., arXiv 1606.06025, on
// Hasenplaugh et al.'s counters). A round is two barriered passes:
//
//  * B1: every vertex on the max list commits first-fit. Its uncolored
//    neighbours all lie below it, so each loses one from hi; one that
//    reaches 0 goes on the next max list.
//  * B2, while at least half the graph is uncolored: every vertex on the
//    min list tries first-fit, seeing B1's colors. One whose color is
//    already in the palette commits, and its uncolored neighbours (all
//    above it) each lose one from lo; one that reaches 0 goes on the next
//    min list. One that would open a new color stays on the min list: an
//    early low-priority vertex grabbing a fresh low color cascades extra
//    colors onto the vertices greedy would color first. In the sparse
//    tail the min commits cost colors without saving meaningful work, so
//    B2 stops.
//
// The min list is built before B1, so B1's decrements cannot add a min
// winner to the round it runs in. Each list is an independent set, so
// its first-fit reads never race with its commits. The winner sets
// depend on the priorities alone and the palette is a max over the
// round, so the coloring does not depend on the thread count or on the
// order in which the lists were appended.
#include <algorithm>
#include <atomic>  // std::atomic_ref, std::memory_order
#include <memory>

#include "par/detail/driver.hpp"
#include "util/narrow.hpp"
#include "util/sync.hpp"

namespace gcg::par::detail {

namespace {

/// One worker's scratch: the first-fit mask and the vertices one list
/// chunk appends, so that the chunk claims its slots once.
struct StealScratch {
  explicit StealScratch(vid_t max_degree) : ff(max_degree) {}
  FirstFitScratch ff;
  std::vector<vid_t> found;
};

/// Appends `found` to the appender's list with one claim.
void append(FrontierAppender& app, const std::vector<vid_t>& found) {
  if (found.empty()) return;
  std::uint32_t at = app.claim(narrow<std::uint32_t>(found.size()));
  for (vid_t v : found) app.out[at++] = v;
}

/// Takes one from v's counter; true if that brought it to zero.
bool release_one(std::uint32_t& counter) {
  // order: relaxed — the RMW alone decides which decrement reaches zero;
  // the vertex it frees is read from a list, and the colors from the
  // color array, only after the pool barrier that ends the pass.
  return std::atomic_ref<std::uint32_t>(counter).fetch_sub(
             1, std::memory_order_relaxed) == 1;
}

}  // namespace

void run_steal(DriverState& st) {
  const Csr& g = st.g;
  const vid_t n = g.num_vertices();
  if (n == 0) return;
  const unsigned workers = st.pool.size();

  const auto hi = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  const auto lo = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  std::vector<vid_t> max_list(n), max_next(n), min_list(n), min_next(n);
  // Each worker allocates its own scratch, so one worker's mask never
  // shares a cache line with another's; the barrier publishes the pointers.
  std::vector<std::unique_ptr<StealScratch>> scratch(workers);
  st.pool.run([&](unsigned w) {
    scratch[w] = std::make_unique<StealScratch>(g.max_degree());
  });

  // Count pass: each chunk sets its vertices' counters, then lists its
  // maxima and minima with one claim per list.
  FrontierAppender max_app{max_list};
  FrontierAppender min_app{min_list};
  st.pool.parallel_for_edges(
      n, g.row_offsets().data(), edge_grain(g.num_arcs(), n),
      [&](std::uint32_t b, std::uint32_t e, unsigned w) {
        BusyTimer timer(st.run.workers[w]);
        std::uint32_t maxima = 0, minima = 0;
        for (vid_t v = b; v < e; ++v) {
          std::uint32_t higher = 0;
          for (vid_t u : g.neighbors(v)) {
            higher += st.priority_below(v, u) ? 1u : 0u;
          }
          hi[v] = higher;
          lo[v] = g.degree(v) - higher;
          maxima += hi[v] == 0 ? 1u : 0u;
          minima += lo[v] == 0 ? 1u : 0u;
        }
        std::uint32_t at = maxima > 0 ? max_app.claim(maxima) : 0;
        for (vid_t v = b; v < e; ++v) {
          if (hi[v] == 0) max_list[at++] = v;
        }
        at = minima > 0 ? min_app.claim(minima) : 0;
        for (vid_t v = b; v < e; ++v) {
          if (lo[v] == 0) min_list[at++] = v;
        }
      });
  // order: relaxed — read after the pool barrier that ended the pass.
  std::uint32_t num_max = max_app.counter.load(std::memory_order_relaxed);
  std::uint32_t num_min = min_app.counter.load(std::memory_order_relaxed);

  std::uint32_t uncolored = n;
  color_t palette = 0;  // colors used so far; barriers keep it exact
  std::vector<color_t> wmax(workers);
  while (uncolored > 0 && !cancel_requested(st)) {
    GCG_ASSERT(st.run.iterations < kMaxRounds);
    ++st.run.iterations;
    sync::atomic<std::uint32_t> colored{0};

    // B1: the max list commits first-fit, in one scan of each row.
    std::fill(wmax.begin(), wmax.end(), palette);
    FrontierAppender max_out{max_next};
    st.pool.parallel_for(num_max, kGrain, [&](std::uint32_t b,
                                              std::uint32_t e, unsigned w) {
      ParWorkerStats& ws = st.run.workers[w];
      BusyTimer timer(ws);
      StealScratch& s = *scratch[w];
      s.found.clear();
      std::uint32_t committed = 0;
      color_t top = palette;
      for (std::uint32_t i = b; i < e; ++i) {
        const vid_t v = max_list[i];
        // Freed in the last B1, then colored by the B2 after it.
        if (load_color(st.colors[v]) != kUncolored) continue;
        const std::size_t limit = s.ff.clear(g.degree(v));
        for (vid_t u : g.neighbors(v)) {
          const color_t c = load_color(st.colors[u]);
          if (c != kUncolored) {
            s.ff.mark(c, limit);
          } else if (u != v && release_one(hi[u])) {
            s.found.push_back(u);
          }
        }
        const color_t c = s.ff.first_zero(limit);
        store_color(st.colors[v], c);
        top = std::max(top, c + 1);
        ++committed;
      }
      append(max_out, s.found);
      wmax[w] = std::max(wmax[w], top);
      // order: relaxed — a count; read after the pool barrier.
      colored.fetch_add(committed, std::memory_order_relaxed);
      ++ws.chunks;
      ws.vertices += e - b;
    });
    palette = *std::max_element(wmax.begin(), wmax.end());

    // B2: the min list, gated to dense rounds and to palette colors.
    if (std::uint64_t{uncolored} * 2 >= n) {
      FrontierAppender min_out{min_next};
      st.pool.parallel_for(num_min, kGrain, [&](std::uint32_t b,
                                                std::uint32_t e, unsigned w) {
        ParWorkerStats& ws = st.run.workers[w];
        BusyTimer timer(ws);
        StealScratch& s = *scratch[w];
        s.found.clear();
        std::uint32_t committed = 0;
        for (std::uint32_t i = b; i < e; ++i) {
          const vid_t v = min_list[i];
          if (load_color(st.colors[v]) != kUncolored) continue;  // a max
          const color_t c = s.ff.first_fit(g, st.colors, v);
          if (c >= palette) {
            s.found.push_back(v);  // deferred to the next round
            continue;
          }
          store_color(st.colors[v], c);
          ++committed;
          for (vid_t u : g.neighbors(v)) {
            if (load_color(st.colors[u]) == kUncolored && release_one(lo[u])) {
              s.found.push_back(u);
            }
          }
        }
        append(min_out, s.found);
        // order: relaxed — a count; read after the pool barrier.
        colored.fetch_add(committed, std::memory_order_relaxed);
        ++ws.chunks;
        ws.vertices += e - b;
      });
      // order: relaxed — read after the pool barrier that ended the pass.
      num_min = min_out.counter.load(std::memory_order_relaxed);
      min_list.swap(min_next);
    }

    // order: relaxed — both read after the pool barrier.
    num_max = max_out.counter.load(std::memory_order_relaxed);
    uncolored -= colored.load(std::memory_order_relaxed);
    max_list.swap(max_next);
  }
}

}  // namespace gcg::par::detail
