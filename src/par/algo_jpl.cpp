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
//    be pushed twice (once as a source, once by a decrement). This is the
//    only pass that compares priorities.
//  * color pass: workers take ready vertices in batches from their own
//    deque (or steal one), and color each with a single scan of its row.
//    A ready vertex's colored neighbours are exactly its higher-priority
//    ones, so the scan marks their colors for first-fit, takes their
//    longest chain, and collects the uncolored rest: the lower-priority
//    neighbours, whose counters it then decrements. The worker that
//    brings a counter to zero pushes that neighbour onto its own deque.
//    No barrier inside: the pass ends when every vertex is colored or the
//    run is cancelled.
//
// The color pass is bound by dependent cache misses (pop v, read its row
// bounds, read its row, read the neighbours' colors), taken in DAG order
// rather than address order. Taking a batch of ready vertices and
// prefetching their row bounds, then their rows' heads, overlaps those
// misses across the batch. Ready vertices form an independent set (of two
// adjacent ones, the lower waits on the higher), so the order inside a
// batch cannot change a color.
//
// The colors depend on the priorities alone — not on the thread count,
// the steal schedule, the batching or the SIMD level. ParRun::iterations
// is the longest priority chain, which is exactly the round count of
// round-based JP: a vertex wins in the round after its last
// higher-priority neighbour.
#include <algorithm>
#include <array>
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
/// count, rounded up to whole batches; worker 0 polls should_cancel at the
/// same points.
constexpr std::uint32_t kFlushEvery = 256;

/// Ready vertices a worker takes from its own deque at once, so that the
/// cache misses of their rows overlap.
constexpr unsigned kBatch = 8;

/// First vertex of worker w's count-pass slice: contiguous slices that
/// carry about the same number of arcs.
vid_t slice_begin(const Csr& g, unsigned w, unsigned workers) {
  if (w == workers) return g.num_vertices();
  const auto rows = g.row_offsets();
  const eid_t target = g.num_arcs() * w / workers;
  return narrow<vid_t>(
      std::lower_bound(rows.begin(), rows.end() - 1, target) - rows.begin());
}

/// One worker's color-pass scratch: the first-fit mask and the successor
/// buffer, which holds a vertex's uncolored neighbours between its scan
/// and its decrements.
struct JplScratch {
  explicit JplScratch(vid_t max_degree)
      : ff(max_degree),
        succ(std::make_unique_for_overwrite<vid_t[]>(max_degree)) {}
  FirstFitScratch ff;
  std::unique_ptr<vid_t[]> succ;
};

}  // namespace

void run_jpl(DriverState& st) {
  const Csr& g = st.g;
  const vid_t n = g.num_vertices();
  if (n == 0 || cancel_requested(st)) return;
  const unsigned workers = st.pool.size();

  // wait[v] counts v's uncolored higher-priority neighbours: the count
  // pass sets it and their decrements bring it to zero. Then the counter
  // is dead, and once v is colored the slot holds v's level: the length
  // of the longest priority chain ending at v.
  const auto wait = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  // Every vertex is pushed exactly once per run, so n pushes can never
  // overflow a deque; the pages past what a worker pushes stay untouched.
  StealPool ready(workers, n);
  // Each worker allocates its own scratch, so one worker's mask never
  // shares a cache line with another's; the barrier publishes the pointers.
  std::vector<std::unique_ptr<JplScratch>> scratch(workers);

  st.pool.run([&](unsigned w) {
    BusyTimer timer(st.run.workers[w]);
    scratch[w] = std::make_unique<JplScratch>(g.max_degree());
    const vid_t end = slice_begin(g, w + 1, workers);
    for (vid_t v = slice_begin(g, w, workers); v < end; ++v) {
      std::uint32_t higher = 0;
      // A neighbour u with v below it in priority is colored before v.
      for (vid_t u : g.neighbors(v)) {
        higher += st.priority_below(v, u) ? 1u : 0u;
      }
      wait[v] = higher;
      if (higher == 0) ready.push_own(w, v);
    }
  });

  // Vertices colored so far, as flushed by the workers; the pass is over
  // once it reaches n.
  sync::atomic<std::uint32_t> colored{0};
  sync::atomic<bool> stop{false};  // set by worker 0 on cancellation
  std::vector<std::uint32_t> depth(workers, 0);
  const eid_t* const rows = g.row_offsets().data();
  const vid_t* const cols = g.col_indices().data();

  st.pool.run([&](unsigned w) {
    ParWorkerStats& ws = st.run.workers[w];
    FirstFitScratch& ff = scratch[w]->ff;
    vid_t* const succ = scratch[w]->succ.get();
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
    // Colors ready vertex v with one scan of its row, then decrements
    // its lower-priority neighbours.
    const auto color_ready = [&](vid_t v) {
      const std::size_t limit = ff.clear(g.degree(v));
      std::uint32_t lv = 0;
      vid_t* tail = succ;
      for (vid_t u : g.neighbors(v)) {
        // validate_csr rejects self loops by default; one that gets
        // through is neither a higher- nor a lower-priority neighbour,
        // as in the count pass.
        if (u == v) continue;
        // order: relaxed (load_color) — colored here means higher
        // priority. Each higher-priority neighbour stored its color
        // before its acq_rel decrement of v's counter, which v's ready
        // hand-off acquired, so its color and level are visible. A
        // lower-priority neighbour's color store happens after our own
        // acq_rel fetch_sub on its counter below, which is sequenced
        // after this read, so the read sees kUncolored.
        const color_t c = load_color(st.colors[u]);
        if (c == kUncolored) {
          *tail++ = u;
        } else {
          ff.mark(c, limit);
          lv = std::max(lv, wait[u]);  // u's level
        }
      }
      store_color(st.colors[v], ff.first_zero(limit));
      wait[v] = ++lv;
      deepest = std::max(deepest, lv);
      for (const vid_t* p = succ; p != tail; ++p) {
        // order: acq_rel — the release half publishes v's color and level
        // to whichever worker brings the counter to zero, and that
        // worker's acquire half makes every earlier decrement's color
        // visible too (model-checked:
        // McLitmus.DependencyCounterAcqRelPasses; release alone fails,
        // McLitmus.DependencyCounterReleaseFails).
        if (std::atomic_ref<std::uint32_t>(wait[*p]).fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          ready.push_own(w, *p);
        }
      }
    };

    std::array<vid_t, kBatch> batch{};
    for (;;) {
      {
        BusyTimer timer(ws);  // one busy stretch: until no work is found
        for (;;) {
          // Up to kBatch from the own deque; a steal only when it is
          // empty, so thieves keep the rest of a long deque.
          unsigned k = 0;
          for (std::optional<vid_t> next;
               k < kBatch && (next = ready.pop_own(w));) {
            batch[k++] = *next;
          }
          if (k == 0) {
            const std::optional<vid_t> next = ready.steal(w, rng);
            if (!next) break;
            batch[k++] = *next;
          }
          // Two prefetch stages: every row's bounds, then every row's
          // head, so each stage's misses overlap.
          for (unsigned i = 0; i < k; ++i) __builtin_prefetch(rows + batch[i]);
          for (unsigned i = 0; i < k; ++i) {
            __builtin_prefetch(cols + rows[batch[i]]);
          }
          // A taken batch is colored whole, so a cancelled run still ends
          // on a prefix of the full coloring.
          for (unsigned i = 0; i < k; ++i) color_ready(batch[i]);
          unflushed += k;
          if (unflushed >= kFlushEvery) {
            flush();
            if (cancelled()) break;
          }
        }
      }
      flush();
      // order: relaxed — every vertex counted here is colored, and the
      // pool barrier publishes the colors.
      const std::uint32_t done = colored.load(std::memory_order_relaxed);
      // A vertex pushed twice would be counted twice: the count would
      // pass n and the pass would spin forever.
      GCG_ASSERT(done <= n);
      // A finished run is not polled again, so it is not reported
      // cancelled.
      if (done == n || cancelled()) break;
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
