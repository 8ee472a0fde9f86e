// Shared state for the native parallel coloring algorithms — the par
// analogue of coloring/detail/driver.hpp. Internal header.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <vector>

#include "par/detail/appender.hpp"
#include "par/detail/arena.hpp"
#include "par/pool.hpp"
#include "par/runner.hpp"
#include "util/narrow.hpp"
#include "util/expect.hpp"
#include "util/simd.hpp"

namespace gcg::par::detail {

/// Palette size at or above which FirstFitScratch switches from the
/// per-call-cleared bitset to the stamped fallback (see below).
inline constexpr std::size_t kFirstFitBitsetCap = 4096;

/// Target vertices per scheduler chunk in every barriered vertex-parallel
/// phase: steal's commit phases, and speculative's frontier phases,
/// where it sets the chunk count and the edge-balanced split then moves
/// the boundaries (FrontierExec::edge_grain).
inline constexpr std::uint32_t kGrain = 512;

struct DriverState {
  DriverState(ThreadPool& p, const Csr& graph, const ParOptions& options,
              ParAlgorithm algorithm)
      : g(graph),
        opts(options),
        pool(p),
        prio(make_priorities(graph, options.priority, options.seed)),
        colors(p, graph.num_vertices(), kUncolored) {
    run.algorithm = algorithm;
    run.threads = pool.size();
    run.workers.resize(pool.size());
    // Start-word hints for the stamp-fallback first-fit; only graphs with
    // a vertex whose palette can exceed the bitset cap ever consult them,
    // and only algorithms that recolor a vertex (jpl colors each once).
    if (algorithm != ParAlgorithm::kJpl &&
        std::size_t{graph.max_degree()} + 1 > kFirstFitBitsetCap) {
      stamp_hints.assign(graph.num_vertices(), 0);
    }
  }

  /// Per-vertex scratch slot for FirstFitScratch's stamp-fallback scan
  /// hint; null when no vertex can need the fallback. Each vertex is
  /// processed by exactly one worker per phase and phases are separated
  /// by pool barriers, so the slot is never written concurrently.
  std::uint32_t* stamp_hint(vid_t v) {
    return stamp_hints.empty() ? nullptr : &stamp_hints[v];
  }

  const Csr& g;
  const ParOptions& opts;
  ThreadPool& pool;
  std::vector<std::uint32_t> prio;
  FirstTouchArray<color_t> colors;  ///< first-touched by the worker slices
  std::vector<std::uint32_t> stamp_hints;
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

/// Per-worker first-fit scratch. Two paths share one contract — return
/// the smallest color unused by v's neighbours (read through load_color):
///
///  * bitset: a forbidden-color mask at one bit per color, 64 colors per
///    word. A vertex of degree d has at most d forbidden colors, so only
///    colors < d+1 can matter; the mask is cleared and scanned up to that
///    limit and the answer is the first zero bit (countr_one). This keeps
///    the whole scan for typical vertices inside a handful of words.
///  * stamped bitset: the fallback for ultra-high-degree vertices where
///    clearing the small bitset per call would dominate. One bit per
///    color like the fast path, but words are invalidated lazily by a
///    per-word epoch instead of cleared, and an optional caller-held
///    start-word hint skips the (often fully-forbidden) low words so a
///    pathological high-color vertex recolored many times does not
///    rescan from word 0 each call. Allocated only when the graph can
///    need it.
///
/// The word scans go through the simd:: seam (AVX2 when the CPU has it,
/// scalar otherwise); both levels return the identical first-zero word,
/// so the chosen level can never change a coloring.
struct FirstFitScratch {
  /// Colors at or above this use the stamp fallback (degree >= cap).
  static constexpr std::size_t kBitsetColorCap = kFirstFitBitsetCap;

  explicit FirstFitScratch(vid_t max_degree) {
    const std::size_t colors = std::size_t{max_degree} + 1;
    words.assign((std::min(colors, kBitsetColorCap) + 63) / 64, 0);
    if (colors > kBitsetColorCap) {
      // One slack word so the first-zero scan always terminates in range
      // (the answer is at most max_degree — see first_fit).
      const std::size_t nw = (colors + 63) / 64 + 1;
      fb_bits.assign(nw, 0);
      fb_epoch.assign(nw, 0);
    }
  }

  /// Smallest color unused by v's neighbours. `hint` (optional, owned by
  /// the caller per vertex) carries the fallback path's start word
  /// between successive calls for the same v; it is validated against
  /// the current neighbourhood every call, so a stale hint costs only a
  /// full rescan, never a wrong answer.
  color_t first_fit(const Csr& g, std::span<const color_t> colors, vid_t v,
                    std::uint32_t* hint = nullptr) {
    // At most degree(v) colors are forbidden, so the answer is at most
    // degree(v) and neighbour colors beyond that bound are irrelevant.
    const std::size_t limit = std::size_t{g.degree(v)} + 1;
    return limit <= kBitsetColorCap ? bitset_fit(g, colors, v, limit)
                                    : stamp_fit(g, colors, v, hint);
  }

  std::vector<std::uint64_t> words;     ///< forbidden-color bitset
  std::vector<std::uint64_t> fb_bits;   ///< fallback bitset (big graphs)
  std::vector<std::uint64_t> fb_epoch;  ///< fallback word valid iff ==stamp
  std::uint64_t stamp = 0;

 private:
  color_t bitset_fit(const Csr& g, std::span<const color_t> colors, vid_t v,
                     std::size_t limit) {
    const std::size_t nw = (limit + 63) / 64;
    simd::clear_words(words.data(), nw);
    for (vid_t u : g.neighbors(v)) {
      // kUncolored (-1) wraps to UINT32_MAX, so one compare rejects both
      // uncolored neighbours and colors too large to matter.
      // lossy: see the comment above — the -1 wrap is the mechanism
      const auto c = narrow_cast<std::uint32_t>(load_color(colors[u]));
      if (c < limit) words[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
    // A zero bit below `limit` always exists: at most limit-1 neighbours
    // marked bits among limit candidates.
    const std::size_t k = simd::first_not_full_word(words.data(), nw);
    GCG_ASSERT(k < nw);
    return narrow<color_t>(k * 64 + to_unsigned(std::countr_one(words[k])));
  }

  /// Effective value of fallback word k this call (0 unless re-marked).
  std::uint64_t fb_word(std::size_t k) const {
    return fb_epoch[k] == stamp ? fb_bits[k] : 0;
  }

  color_t stamp_fit(const Csr& g, std::span<const color_t> colors, vid_t v,
                    std::uint32_t* hint) {
    ++stamp;
    // Hint validation: the scan may start at `start` only if this call
    // proves every color below start*64 forbidden. `below` counts the
    // distinct bits this call marks in words before `start`; equality
    // with the bit capacity of that prefix is exactly that proof — so a
    // hint left behind by an earlier call (when neighbours may since
    // have been uncolored by conflict resolution) can never skip a free
    // color.
    const std::size_t start = hint == nullptr ? 0 : *hint;
    std::uint64_t below = 0;
    for (vid_t u : g.neighbors(v)) {
      const color_t c = load_color(colors[u]);
      // lossy: kUncolored wraps to SIZE_MAX; the bounds test rejects it
      const auto idx = narrow_cast<std::size_t>(c);
      if (c == kUncolored || (idx >> 6) >= fb_bits.size()) continue;
      const std::size_t k = idx >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
      const std::uint64_t w = fb_word(k);
      if ((w & bit) == 0) {
        fb_bits[k] = w | bit;
        fb_epoch[k] = stamp;
        if (k < start) ++below;
      }
    }
    std::size_t k = below == std::uint64_t{start} * 64 ? start : 0;
    for (;; ++k) {
      const std::uint64_t w = fb_word(k);
      if (w != ~std::uint64_t{0}) {
        // Every word before k was saturated this call, so k is a proven
        // start word for the next call on this vertex.
        if (hint != nullptr) *hint = narrow<std::uint32_t>(k);
        return narrow<color_t>(k * 64 + to_unsigned(std::countr_one(w)));
      }
    }
  }
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
