// Shared state for the native parallel coloring algorithms — the par
// analogue of coloring/detail/driver.hpp. Internal header.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <vector>

#include "par/detail/appender.hpp"
#include "par/pool.hpp"
#include "par/runner.hpp"
#include "util/narrow.hpp"
#include "util/expect.hpp"
#include "util/simd.hpp"

namespace gcg::par::detail {

/// Target vertices per scheduler chunk in every barriered vertex-parallel
/// phase: steal's list passes, and the edge-balanced passes (steal's
/// count pass, speculative's two passes per round), where it sets the
/// chunk count and edge_grain then moves the boundaries.
inline constexpr std::uint32_t kGrain = 512;

/// Edge weight per chunk that cuts n vertices into as many chunks as
/// kGrain-vertex chunks would make, with boundaries moved so every chunk
/// carries a comparable number of edges (ThreadPool::parallel_for_edges).
inline std::uint64_t edge_grain(std::uint64_t arcs, std::uint32_t n) {
  const std::uint64_t chunks =
      std::max<std::uint64_t>(1, (n + kGrain - 1) / kGrain);
  return std::max<std::uint64_t>(1, (arcs + chunks - 1) / chunks);
}

/// Safety cap on rounds (speculative, steal) and on jpl's longest
/// priority chain; every algorithm finishes far below it.
inline constexpr unsigned kMaxRounds = 1u << 20;

/// The sequence a job takes the caller's vertices in: visit[k] is the
/// vertex taken k-th and rank[v] is v's position, so rank[visit[k]] == k
/// (rank is graph/reorder.hpp's perm). Coloring `g` in this sequence, with
/// priorities and ties taken from rank, gives exactly the coloring of the
/// relabeled graph apply_order(g, rank), with no copy of the graph. Both
/// arrays are empty for the natural order, the identity.
struct VisitOrder {
  std::vector<vid_t> visit;
  std::vector<vid_t> rank;

  vid_t vertex_at(vid_t k) const { return visit.empty() ? k : visit[k]; }
  vid_t rank_of(vid_t v) const { return rank.empty() ? v : rank[v]; }
};

struct DriverState {
  DriverState(ThreadPool& p, const Csr& graph, const ParOptions& options,
              ParAlgorithm algorithm, const VisitOrder& visit_order)
      : g(graph),
        opts(options),
        pool(p),
        order(visit_order),
        prio(make_priorities(graph, options.priority, options.seed,
                             visit_order.rank)),
        colors(graph.num_vertices(), kUncolored) {
    run.algorithm = algorithm;
    run.threads = pool.size();
    run.workers.resize(pool.size());
  }

  /// Strict total order on vertices: priority, then rank. The rank is
  /// read only on a priority tie, so the hot loops load nothing extra per
  /// arc.
  bool priority_below(vid_t a, vid_t b) const {
    if (prio[a] != prio[b]) return prio[a] < prio[b];
    return order.rank_of(a) < order.rank_of(b);
  }

  const Csr& g;
  const ParOptions& opts;
  ThreadPool& pool;
  const VisitOrder& order;
  std::vector<std::uint32_t> prio;
  std::vector<color_t> colors;
  ParRun run;
};

/// Polled by worker 0 only — at iteration boundaries (speculative,
/// steal), or every few hundred colored vertices (jpl): returns true (and
/// latches run.cancelled) once opts.should_cancel fires. Either way the
/// partial coloring is conflict-free (for jpl, a prefix of the full run's).
inline bool cancel_requested(DriverState& st) {
  if (st.run.cancelled) return true;
  if (st.opts.should_cancel && st.opts.should_cancel()) {
    st.run.cancelled = true;
  }
  return st.run.cancelled;
}

/// Relaxed atomic view of a color slot. Phase barriers (jpl: its
/// dependency counters) order everything that matters; the relaxed
/// accesses only make the benign races of the speculative kernel
/// well-defined (and TSan-clean).
inline color_t load_color(const color_t& slot) {
  // order: relaxed — phase barriers publish colors between phases (jpl:
  // the acq_rel counter hand-off before a vertex is ready); within a
  // phase a stale read only causes a conflict the next iteration fixes
  // (the speculative algorithms are correct under any interleaving).
  return std::atomic_ref<const color_t>(slot).load(std::memory_order_relaxed);
}
inline void store_color(color_t& slot, color_t c) {
  // order: relaxed — see load_color; the pool barrier is the publisher.
  std::atomic_ref<color_t>(slot).store(c, std::memory_order_relaxed);
}

/// Per-worker first-fit scratch: a forbidden-color mask at one bit per
/// color, 64 colors per word — the forbidden-color bitmap of Chen et al.
/// (arXiv 1606.06025). A vertex of degree d has at most d forbidden
/// colors, so only colors < d+1 can matter: each call clears and scans
/// just the mask's first (d+1)/64 words, and the answer is the first zero
/// bit (countr_one). The mask holds max_degree+1 bits, so every vertex,
/// hubs included, takes this one path.
///
/// The word scans go through the simd:: seam (AVX2 when the CPU has it,
/// scalar otherwise); both levels return the identical first-zero word,
/// so the chosen level can never change a coloring.
struct FirstFitScratch {
  explicit FirstFitScratch(vid_t max_degree)
      : words((std::size_t{max_degree} + 1 + 63) / 64, 0) {}

  /// Smallest color unused by v's neighbours (read through load_color).
  color_t first_fit(const Csr& g, std::span<const color_t> colors, vid_t v) {
    const std::size_t limit = clear(g.degree(v));
    for (vid_t u : g.neighbors(v)) mark(load_color(colors[u]), limit);
    return first_zero(limit);
  }

  /// First half of first_fit, for a vertex of degree `degree`: empties
  /// the mask and returns the color bound, degree + 1. At most `degree`
  /// colors are forbidden, so the answer is below the bound and neighbour
  /// colors at or beyond it are irrelevant.
  std::size_t clear(vid_t degree) {
    const std::size_t limit = std::size_t{degree} + 1;
    simd::clear_words(words.data(), (limit + 63) / 64);
    return limit;
  }

  /// Forbids color c, if it is below `limit`.
  void mark(color_t c, std::size_t limit) {
    // kUncolored (-1) wraps to UINT32_MAX, so one compare rejects both
    // uncolored neighbours and colors too large to matter.
    // lossy: see the comment above — the -1 wrap is the mechanism
    const auto x = narrow_cast<std::uint32_t>(c);
    if (x < limit) words[x >> 6] |= std::uint64_t{1} << (x & 63);
  }

  /// Second half of first_fit: the smallest color not marked since
  /// clear() returned `limit`.
  color_t first_zero(std::size_t limit) const {
    const std::size_t nw = (limit + 63) / 64;
    // A zero bit below `limit` always exists: at most limit-1 neighbours
    // marked bits among limit candidates.
    const std::size_t k = simd::first_not_full_word(words.data(), nw);
    GCG_ASSERT(k < nw);
    return narrow<color_t>(k * 64 + to_unsigned(std::countr_one(words[k])));
  }

  std::vector<std::uint64_t> words;  ///< forbidden-color bitset
};

/// Accumulates busy time into one worker's stats on scope exit.
class BusyTimer {
 public:
  explicit BusyTimer(ParWorkerStats& stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~BusyTimer() {
    const auto end = std::chrono::steady_clock::now();
    stats_.busy_ms +=
        std::chrono::duration<double, std::milli>(end - start_).count();
  }

 private:
  ParWorkerStats& stats_;
  std::chrono::steady_clock::time_point start_;
};

/// Concurrent append of surviving vertices into a preallocated frontier
/// (the model-checked template in par/detail/appender.hpp).
using FrontierAppender = BasicFrontierAppender<vid_t>;

void run_speculative(DriverState& st);
void run_jpl(DriverState& st);
void run_steal(DriverState& st);

}  // namespace gcg::par::detail
