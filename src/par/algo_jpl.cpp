// Native Jones–Plassmann–Luby as a priority DAG (Hasenplaugh, Kaler,
// Schardl & Leiserson, SPAA '14), with no rounds. Under a strict total
// priority order the JP coloring is sequential first-fit in decreasing
// priority: a vertex takes its color once every higher-priority
// neighbour has one, while its lower-priority neighbours are still
// uncolored. So each vertex waits on a counter of uncolored
// higher-priority neighbours and is colored exactly once, as soon as
// that counter reaches zero:
//
//  * count pass: each worker counts its contiguous, edge-balanced slice
//    and pushes the slice's sources (count 0) onto its own deque. The
//    pool barrier ends the pass before any decrement, so a vertex cannot
//    be pushed twice (once as a source, once by a decrement).
//  * color pass: workers pop from their own deque or steal, first-fit
//    the vertex, then decrement each lower-priority neighbour's counter;
//    the worker that brings a counter to zero pushes that neighbour onto
//    its own deque. No barrier inside: the pass ends when every vertex
//    is colored or the run is cancelled.
//
// The colors depend on the priorities alone — not on the thread count,
// the steal schedule or the SIMD level. ParRun::iterations is the
// longest priority chain, which is exactly the round count of round-based
// JP: a vertex wins in the round after its last higher-priority
// neighbour.
#include <algorithm>
#include <atomic>  // std::atomic_ref, std::memory_order
#include <memory>
#include <thread>

#include "par/detail/driver.hpp"
#include "par/steal_pool.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace gcg::par::detail {

namespace {

/// Vertices a worker colors between flushes of its tally into the shared
/// count; worker 0 polls should_cancel at the same points.
constexpr std::uint32_t kFlushEvery = 256;

/// First vertex of worker w's count-pass slice: contiguous slices that
/// carry about the same number of arcs.
vid_t slice_begin(const Csr& g, unsigned w, unsigned workers) {
  if (w == workers) return g.num_vertices();
  const auto rows = g.row_offsets();
  const eid_t target = g.num_arcs() * w / workers;
  return narrow<vid_t>(
      std::lower_bound(rows.begin(), rows.end() - 1, target) - rows.begin());
}

}  // namespace

void run_jpl(DriverState& st) {
  const Csr& g = st.g;
  const vid_t n = g.num_vertices();
  if (n == 0 || cancel_requested(st)) return;
  const unsigned workers = st.pool.size();
  // u outranks v: u is colored before v.
  const auto outranks = [&](vid_t u, vid_t v) {
    return priority_less(st.prio[v], v, st.prio[u], u);
  };

  // pending[v]: higher-priority neighbours of v still uncolored.
  // level[v]: length of the longest priority chain ending at v, set when
  // v is colored. The count pass initializes both.
  const auto pending = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  const auto level = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  // Every vertex is pushed exactly once per run, so n pushes can never
  // overflow a deque; the pages past what a worker pushes stay untouched.
  StealPool<vid_t> ready(workers, n);
  // Each worker allocates its own scratch, so one worker's mask never
  // shares a cache line with another's; the barrier publishes the pointers.
  std::vector<std::unique_ptr<FirstFitScratch>> scratch(workers);

  st.pool.run([&](unsigned w) {
    BusyTimer timer(st.run.workers[w]);
    scratch[w] = std::make_unique<FirstFitScratch>(g.max_degree());
    const vid_t end = slice_begin(g, w + 1, workers);
    for (vid_t v = slice_begin(g, w, workers); v < end; ++v) {
      std::uint32_t higher = 0;
      for (vid_t u : g.neighbors(v)) higher += outranks(u, v) ? 1u : 0u;
      pending[v] = higher;
      level[v] = 0;
      if (higher == 0) ready.push_own(w, v);
    }
  });

  // Vertices colored so far, as flushed by the workers; the pass is over
  // once it reaches n.
  sync::atomic<std::uint32_t> colored{0};
  sync::atomic<bool> stop{false};  // set by worker 0 on cancellation
  std::vector<std::uint32_t> depth(workers, 0);

  st.pool.run([&](unsigned w) {
    ParWorkerStats& ws = st.run.workers[w];
    FirstFitScratch& ff = *scratch[w];
    Xoshiro256ss rng(mix64(st.opts.seed ^ (std::uint64_t{w} + 1)));
    std::uint32_t unflushed = 0;
    std::uint32_t deepest = 0;
    // Adds this worker's tally to the shared count.
    const auto flush = [&] {
      if (unflushed == 0) return;
      // order: relaxed — a count only; colors and levels are published by
      // the counters below and, to the caller, by the pool barrier.
      colored.fetch_add(unflushed, std::memory_order_relaxed);
      ws.vertices += unflushed;
      unflushed = 0;
    };
    // Worker 0 polls should_cancel; every worker reads the outcome.
    const auto cancelled = [&] {
      // order: relaxed — a stop hint; the partial coloring is published
      // by the pool barrier.
      if (w == 0 && cancel_requested(st)) {
        stop.store(true, std::memory_order_relaxed);
      }
      // order: relaxed — see above.
      return stop.load(std::memory_order_relaxed);
    };

    for (;;) {
      {
        BusyTimer timer(ws);  // one busy stretch: until no work is found
        std::optional<vid_t> next;
        while ((next = ready.pop_own(w)) || (next = ready.steal(w, rng))) {
          const vid_t v = *next;
          // Lower-priority neighbours are uncolored until v's decrements
          // below, so this reads a stable neighbourhood.
          store_color(st.colors[v], ff.first_fit(g, st.colors, v));
          std::uint32_t lv = 0;
          for (vid_t u : g.neighbors(v)) {
            if (outranks(u, v)) lv = std::max(lv, level[u]);
          }
          level[v] = ++lv;
          deepest = std::max(deepest, lv);
          for (vid_t u : g.neighbors(v)) {
            if (outranks(u, v)) continue;
            // order: acq_rel — the release half publishes v's color and
            // level to whichever worker brings u's counter to zero, and
            // that worker's acquire half makes every earlier decrement's
            // color visible too (model-checked:
            // McLitmus.DependencyCounterAcqRelPasses; release alone
            // fails, McLitmus.DependencyCounterReleaseFails).
            if (std::atomic_ref<std::uint32_t>(pending[u]).fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
              ready.push_own(w, u);
            }
          }
          if (++unflushed == kFlushEvery) {
            flush();
            if (cancelled()) break;
          }
        }
      }
      flush();
      // A finished run is not polled again, so it is not reported
      // cancelled.
      // order: relaxed — every vertex counted here is colored, and the
      // pool barrier publishes the colors.
      if (colored.load(std::memory_order_relaxed) == n || cancelled()) break;
      std::this_thread::yield();  // work may still appear on a deque
    }
    depth[w] = deepest;
  });

  st.run.iterations = *std::max_element(depth.begin(), depth.end());
  GCG_ASSERT(st.run.iterations <= kMaxRounds);
  for (unsigned w = 0; w < workers; ++w) {
    st.run.workers[w].steal = ready.worker_stats(w);
  }
  st.run.steal = ready.stats();
}

}  // namespace gcg::par::detail
