// Native worklist max-min coloring on work-stealing deques — the mirror
// of the simulated Algorithm::kSteal. Phase A deals the frontier to the
// workers in contiguous chunk blocks (the classic static partition whose
// imbalance the paper measures) and lets drained workers steal from
// laggards' deques; phase B commits the max winners, then the min
// winners, and rebuilds the frontier. Unlike the GPU kernel's
// iteration-indexed colors, the commits are first-fit (each winner set is
// independent, and the two sets commit in separate passes, so first-fit
// reads are race-free) — same max-min schedule, greedy-quality counts.
// Min commits are further gated to dense frontiers and to colors already
// in the palette: an early low-priority vertex grabbing a fresh low color
// cascades extra colors onto the vertices greedy would color first, so a
// min winner that would open a new color defers to a later round instead.
// Flags are per-vertex and colors per-slot, and the palette update is a
// schedule-independent max, so the coloring is deterministic even though
// the steal schedule is not.
#include <algorithm>
#include <numeric>
#include <thread>

#include "par/detail/driver.hpp"
#include "par/steal_pool.hpp"
#include "sched/chunk.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg::par::detail {

namespace {
constexpr std::uint8_t kFlagMax = 1;
constexpr std::uint8_t kFlagMin = 2;
/// Frontier items per deque chunk of the stealing flag phase (kGrain
/// sizes the barriered commit phases).
constexpr std::uint32_t kChunkSize = 256;
}  // namespace

void run_steal(DriverState& st) {
  const vid_t n = st.g.num_vertices();
  if (n == 0) return;
  const unsigned workers = st.pool.size();
  std::vector<vid_t> frontier(n);
  std::iota(frontier.begin(), frontier.end(), vid_t{0});
  std::vector<vid_t> next(n);
  FirstTouchArray<std::uint8_t> flags(st.pool, n, std::uint8_t{0});
  std::uint32_t fsize = n;

  StealPool<Chunk> spool(workers);
  // Same-node deques are preferred victims (never changes the coloring —
  // flags are per-vertex and the commit phases are schedule-independent).
  spool.set_worker_nodes(st.pool.worker_nodes());
  // Each worker constructs (first-touches) its own scratch so forbidden
  // masks live on the worker's node; the barrier publishes the pointers.
  std::vector<std::unique_ptr<FirstFitScratch>> scratch(workers);
  st.pool.run([&](unsigned w) {
    scratch[w] = std::make_unique<FirstFitScratch>(st.g.max_degree());
  });
  // Commit phases are barriered parallel_fors over kGrain-vertex chunks;
  // the flag phase's imbalance is handled by the deques, so the
  // edge-balanced split does not apply here.
  color_t palette = 0;  // colors used so far; barriers keep it exact
  std::vector<color_t> wmax(workers);

  while (fsize > 0 && !cancel_requested(st)) {
    GCG_ASSERT(st.run.iterations < kMaxRounds);
    const unsigned iter = st.run.iterations++;
    const auto chunks = make_chunks(fsize, kChunkSize);
    spool.fill(deal_blocked(chunks, workers));

    // Phase A: flag each frontier vertex as a local max/min of the
    // uncolored neighbourhood. Colors are stable here, and each vertex's
    // flag is written by exactly the worker holding its chunk.
    st.pool.run([&](unsigned w) {
      ParWorkerStats& ws = st.run.workers[w];
      Xoshiro256ss rng(mix64(st.opts.seed ^
                             (std::uint64_t{iter} * workers + w + 1)));
      while (true) {
        std::optional<Chunk> c = spool.acquire(w, rng);
        if (!c) {
          if (spool.drained()) break;
          std::this_thread::yield();  // victims still hold their last chunks
          continue;
        }
        BusyTimer timer(ws);
        for (std::uint32_t i = c->begin; i < c->end; ++i) {
          const vid_t v = frontier[i];
          bool is_max = true, is_min = true;
          for (vid_t u : st.g.neighbors(v)) {
            if (load_color(st.colors[u]) != kUncolored) continue;
            if (priority_less(st.prio[v], v, st.prio[u], u)) {
              is_max = false;
            } else {
              is_min = false;
            }
            if (!is_max && !is_min) break;
          }
          flags[v] = (is_max ? kFlagMax : 0) | (is_min ? kFlagMin : 0);
        }
        ++ws.chunks;
        ws.vertices += c->size();
      }
    });

    // Phase B1: the max set commits first-fit (independent, so the reads
    // cannot race with the writes).
    std::fill(wmax.begin(), wmax.end(), palette);
    st.pool.parallel_for(fsize, kGrain, [&](std::uint32_t b, std::uint32_t e,
                                            unsigned w) {
      BusyTimer timer(st.run.workers[w]);
      for (std::uint32_t i = b; i < e; ++i) {
        const vid_t v = frontier[i];
        if (flags[v] & kFlagMax) {
          const color_t c =
              scratch[w]->first_fit(st.g, st.colors.cspan(), v, st.stamp_hint(v));
          store_color(st.colors[v], c);
          wmax[w] = std::max(wmax[w], c + 1);
        }
      }
    });
    palette = *std::max_element(wmax.begin(), wmax.end());

    // Phase B2: while the frontier is dense the min set also commits
    // first-fit (seeing the max set's colors) — the paper's max-min trick
    // that halves the iteration count. In the sparse tail the min commits
    // cost colors without saving meaningful work, so they are skipped.
    const bool use_min = fsize * 2 >= n;
    FrontierAppender app{next};
    st.pool.parallel_for(fsize, kGrain, [&](std::uint32_t b, std::uint32_t e,
                                            unsigned w) {
      BusyTimer timer(st.run.workers[w]);
      std::vector<vid_t> survivors;
      for (std::uint32_t i = b; i < e; ++i) {
        const vid_t v = frontier[i];
        if (flags[v] & kFlagMax) continue;
        color_t c;
        if (use_min && (flags[v] & kFlagMin) &&
            (c = scratch[w]->first_fit(st.g, st.colors.cspan(), v,
                                       st.stamp_hint(v))) < palette) {
          store_color(st.colors[v], c);
        } else {
          survivors.push_back(v);
        }
      }
      if (!survivors.empty()) {
        std::uint32_t at =
            app.claim(narrow<std::uint32_t>(survivors.size()));
        for (vid_t v : survivors) next[at++] = v;
      }
    });

    // order: relaxed — read after the pool barrier that ended the phase.
    fsize = app.counter.load(std::memory_order_relaxed);
    frontier.swap(next);
  }

  for (unsigned w = 0; w < workers; ++w) {
    st.run.workers[w].steal = spool.worker_stats(w);
  }
  st.run.steal = spool.stats();
}

}  // namespace gcg::par::detail
