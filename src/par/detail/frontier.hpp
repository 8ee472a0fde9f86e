// Degree-aware frontier execution for speculative's rounds (jpl has no
// rounds: it colors each vertex once, off the steal deques), under one
// fixed policy chosen from the input rather than from options:
// edge-balanced chunks (kGrain vertices' worth of edges each), a
// cooperative whole-team path for hub vertices above the auto threshold,
// and an adaptive dense/sparse frontier representation. Internal header.
//
// Determinism contract: none of the machinery here may change what an
// algorithm computes, only how the work is divided. The frontier switches
// representation (bitmap vs compacted worklist) and chunk boundaries
// freely because the algorithms' phases are order-independent within a
// phase; the cooperative hub reductions (OR-mask first-fit, exists-scan)
// are commutative, so a hub's result is identical to the per-worker
// path's.
#pragma once

#include <atomic>  // std::memory_order (order args keep their std:: spelling)
#include <span>
#include <vector>

#include "par/detail/driver.hpp"
#include "util/narrow.hpp"
#include "util/simd.hpp"
#include "util/sync.hpp"

namespace gcg::par::detail {

/// Scheduling parameters resolved once per run from the graph and the
/// team size.
struct SchedulePlan {
  vid_t hub_threshold = 0;       ///< degree above which a vertex is a hub
  bool hubs = false;             ///< hub path active this run
  std::uint32_t dense_min = 1;   ///< frontier size at/above which the
                                 ///< dense (bitmap) representation is used
};

/// Hubs are vertices of degree above max(2048, 16 * avg_degree): far above
/// the typical degree, so only the stragglers that would pin one worker
/// for a whole phase go cooperative. The hub path needs a team, so it is
/// off on one thread (which also keeps 1-thread speculative identical to
/// sequential greedy).
SchedulePlan make_plan(const Csr& g, unsigned workers);

/// Neighbours per slice when the team cooperates on one hub's adjacency.
inline constexpr std::uint32_t kHubSliceGrain = 2048;

/// Per-worker forbidden-color masks for cooperative hub first-fit; one
/// stripe per worker, sized once for the largest possible hub. Private
/// stripes mean the slice loop marks colors with plain stores — no
/// per-neighbour atomic RMW traffic on a shared cache line — and the
/// stripes are OR-reduced after the barrier.
struct HubScratch {
  HubScratch(vid_t max_degree, unsigned workers)
      : nwords((std::size_t{max_degree} + 1 + 63) / 64),
        mask(nwords * workers, 0) {}

  std::uint64_t* worker_mask(unsigned w) { return mask.data() + w * nwords; }

  std::size_t nwords;  ///< words per worker stripe
  std::vector<std::uint64_t> mask;
};

/// All workers cooperatively compute the first-fit color of one hub: each
/// scans slices of v's adjacency and ORs forbidden colors into its own
/// mask stripe; the caller OR-reduces the stripes (commutative, so the
/// merged mask — and the returned color — is independent of the slicing)
/// and finds the first zero bit, both through the simd:: seam. Must be
/// called outside any parallel region.
inline color_t coop_first_fit(DriverState& st, HubScratch& hs, vid_t v) {
  const vid_t deg = st.g.degree(v);
  const std::size_t limit = std::size_t{deg} + 1;
  const std::size_t nw = (limit + 63) / 64;
  const unsigned workers = st.pool.size();
  for (unsigned w = 0; w < workers; ++w) {
    simd::clear_words(hs.worker_mask(w), nw);
  }
  const vid_t* nbrs = st.g.col_indices().data() + st.g.offset(v);
  st.pool.parallel_for(
      deg, kHubSliceGrain,
      [&](std::uint32_t b, std::uint32_t e, unsigned w) {
        BusyTimer timer(st.run.workers[w]);
        std::uint64_t* mine = hs.worker_mask(w);
        for (std::uint32_t i = b; i < e; ++i) {
          // lossy: kUncolored (-1) wraps to UINT32_MAX; c < limit rejects it
          const auto c = narrow_cast<std::uint32_t>(load_color(st.colors[nbrs[i]]));
          if (c < limit) mine[c >> 6] |= std::uint64_t{1} << (c & 63);
        }
      });
  // The pool barrier publishes every stripe before these plain reads.
  std::uint64_t* merged = hs.worker_mask(0);
  for (unsigned w = 1; w < workers; ++w) {
    simd::or_words(merged, hs.worker_mask(w), nw);
  }
  // A zero bit below `limit` always exists (deg neighbours, deg+1 slots).
  const std::size_t k = simd::first_not_full_word(merged, nw);
  GCG_ASSERT(k < nw);
  return narrow<color_t>(k * 64 + to_unsigned(std::countr_one(merged[k])));
}

/// True if any neighbour of the hub satisfies pred; workers scan slices
/// and publish into a shared flag, checked per slice for early exit.
/// Existence is independent of the slicing, so the result is
/// deterministic. Must be called outside any parallel region.
template <class Pred>
bool coop_exists(DriverState& st, vid_t v, Pred&& pred) {
  const vid_t deg = st.g.degree(v);
  const vid_t* nbrs = st.g.col_indices().data() + st.g.offset(v);
  sync::atomic<bool> found{false};
  st.pool.parallel_for(
      deg, kHubSliceGrain,
      [&](std::uint32_t b, std::uint32_t e, unsigned w) {
        BusyTimer timer(st.run.workers[w]);
        // order: relaxed — early-exit hint; a missed flag only means one
        // extra slice is scanned.
        if (found.load(std::memory_order_relaxed)) return;
        for (std::uint32_t i = b; i < e; ++i) {
          if (pred(nbrs[i])) {
            // order: relaxed — monotonic flag, published by the barrier.
            found.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
  // order: relaxed — the pool barrier above ordered all stores.
  return found.load(std::memory_order_relaxed);
}

/// The frontier of an iterative vertex-parallel coloring, split into a
/// normal part (per-worker parallel processing in edge-balanced chunks)
/// and a hub part (cooperative, one vertex at a time).
///
/// Representation adapts to density: while the normal frontier holds at
/// least `dense_min` vertices it is an iteration-stamped bitmap over all
/// vertices — survivors mark their own slot, so nothing funnels through a
/// shared append cursor — and the partitioner can use the CSR row-offset
/// array as a ready-made degree prefix. Once the frontier thins out it is
/// compacted into an explicit worklist (frontiers only shrink, so this
/// happens at most once) whose degree prefix is rebuilt per round.
class FrontierExec {
 public:
  FrontierExec(DriverState& st, const SchedulePlan& plan)
      : st_(st), plan_(plan) {
    const vid_t n = st_.g.num_vertices();
    if (plan_.hubs) {
      for (vid_t v = 0; v < n; ++v) {
        if (st_.g.degree(v) > plan_.hub_threshold) hubs_.push_back(v);
      }
    }
    wsize_ = n - narrow<std::uint32_t>(hubs_.size());
    dense_ = wsize_ >= plan_.dense_min;
    if (dense_) {
      // First-touched in worker slices: the stamp bitmap is the densest
      // per-run array after colors and is scanned by the same contiguous
      // vertex ranges the schedulers hand out.
      stamps_ = FirstTouchArray<std::uint32_t>(st_.pool, n, round_);
      for (vid_t v : hubs_) stamps_[v] = 0;  // hubs never take the flat path
    } else {
      worklist_.reserve(wsize_);
      for (vid_t v = 0; v < n; ++v) {
        if (!plan_.hubs || st_.g.degree(v) <= plan_.hub_threshold) {
          worklist_.push_back(v);
        }
      }
      next_.resize(wsize_);
      refresh_prefix();
    }
  }

  /// Active vertices (normal + hub) still uncommitted.
  std::uint32_t active() const {
    return wsize_ + narrow<std::uint32_t>(hubs_.size());
  }

  std::span<const vid_t> hubs() const { return hubs_; }

  /// Read/flag pass: fn(v, worker) on every active normal vertex in
  /// parallel, then hub_fn(v) serially per active hub (hub_fn fans its
  /// own work out over the pool via the coop_* helpers).
  template <class VertexFn, class HubFn>
  void phase(VertexFn&& fn, HubFn&& hub_fn) {
    dispatch([&](std::uint32_t b, std::uint32_t e, unsigned w) {
      ParWorkerStats& ws = st_.run.workers[w];
      BusyTimer timer(ws);
      std::uint64_t seen = 0;
      if (dense_) {
        for (std::uint32_t v = b; v < e; ++v) {
          if (stamps_[v] == round_) {
            fn(vid_t{v}, w);
            ++seen;
          }
        }
      } else {
        for (std::uint32_t i = b; i < e; ++i) fn(worklist_[i], w);
        seen = e - b;
      }
      ws.vertices += seen;
    });
    st_.run.hub_vertices += hubs_.size();
    for (vid_t v : hubs_) hub_fn(v);
  }

  /// Survivor pass: keep(v, worker) -> true keeps v in the next frontier,
  /// keep_hub(v) likewise for hubs; then the frontier advances one round
  /// (representation switch, prefix rebuild).
  template <class KeepFn, class HubKeepFn>
  void rebuild(KeepFn&& keep, HubKeepFn&& keep_hub) {
    std::uint32_t new_size = 0;
    if (dense_) {
      // Survivors stamp their own slot for the next round: no shared
      // append cursor, no scatter into a worklist while the frontier is
      // wide. Only the per-chunk counts meet at an atomic.
      sync::atomic<std::uint32_t> survivors{0};
      dispatch([&](std::uint32_t b, std::uint32_t e, unsigned w) {
        BusyTimer timer(st_.run.workers[w]);
        std::uint32_t kept = 0;
        for (std::uint32_t v = b; v < e; ++v) {
          if (stamps_[v] != round_) continue;
          if (keep(vid_t{v}, w)) {
            stamps_[v] = round_ + 1;
            ++kept;
          }
        }
        // order: relaxed — count aggregation; read after the barrier.
        if (kept > 0) survivors.fetch_add(kept, std::memory_order_relaxed);
      });
      // order: relaxed — the pool barrier ordered the fetch_adds above.
      new_size = survivors.load(std::memory_order_relaxed);
    } else {
      FrontierAppender app{next_};
      dispatch([&](std::uint32_t b, std::uint32_t e, unsigned w) {
        BusyTimer timer(st_.run.workers[w]);
        std::vector<vid_t> kept;
        for (std::uint32_t i = b; i < e; ++i) {
          const vid_t v = worklist_[i];
          if (keep(v, w)) kept.push_back(v);
        }
        if (!kept.empty()) {
          std::uint32_t at = app.claim(narrow<std::uint32_t>(kept.size()));
          for (vid_t v : kept) next_[at++] = v;
        }
      });
      // order: relaxed — the pool barrier ordered all claim() calls.
      new_size = app.counter.load(std::memory_order_relaxed);
      worklist_.swap(next_);
    }

    next_hubs_.clear();
    for (vid_t v : hubs_) {
      if (keep_hub(v)) next_hubs_.push_back(v);
    }
    hubs_.swap(next_hubs_);

    ++round_;
    wsize_ = new_size;
    if (dense_ && wsize_ < plan_.dense_min) compact();
    if (!dense_) refresh_prefix();
  }

 private:
  /// Runs chunk_fn(begin, end, worker) over the active index space in
  /// edge-balanced chunks. Dense mode ranges over vertex ids and uses the
  /// CSR row offsets as the degree prefix; sparse mode ranges over
  /// worklist positions with a per-round prefix.
  template <class ChunkFn>
  void dispatch(ChunkFn&& chunk_fn) {
    if (dense_) {
      const vid_t n = st_.g.num_vertices();
      st_.pool.parallel_for_edges(n, st_.g.row_offsets().data(),
                                  edge_grain(st_.g.num_arcs(), n), chunk_fn);
    } else if (wsize_ > 0) {
      st_.pool.parallel_for_edges(wsize_, prefix_.data(),
                                  edge_grain(prefix_[wsize_], wsize_),
                                  chunk_fn);
    }
  }

  /// Edge weight per chunk that cuts `items` into as many chunks as
  /// kGrain-vertex chunks would make, with boundaries moved so every
  /// chunk carries a comparable number of edges.
  static std::uint64_t edge_grain(std::uint64_t total_weight,
                                  std::uint32_t items) {
    const std::uint64_t chunks =
        std::max<std::uint64_t>(1, (items + kGrain - 1) / kGrain);
    return std::max<std::uint64_t>(1, (total_weight + chunks - 1) / chunks);
  }

  /// One-time dense -> sparse transition: gather the stamped survivors
  /// into an explicit worklist (ascending ids, so a 1-thread run keeps
  /// processing in natural order).
  void compact() {
    const vid_t n = st_.g.num_vertices();
    worklist_.clear();
    worklist_.reserve(wsize_);
    for (vid_t v = 0; v < n; ++v) {
      if (stamps_[v] == round_) worklist_.push_back(v);
    }
    next_.resize(worklist_.size());
    dense_ = false;  // caller refreshes the prefix right after
  }

  /// Serial degree prefix over the worklist; sparse mode only, where the
  /// frontier is by definition a small fraction of the graph.
  void refresh_prefix() {
    prefix_.resize(std::size_t{wsize_} + 1);
    prefix_[0] = 0;
    for (std::uint32_t i = 0; i < wsize_; ++i) {
      prefix_[i + 1] = prefix_[i] + st_.g.degree(worklist_[i]);
    }
  }

  DriverState& st_;
  SchedulePlan plan_;
  std::vector<vid_t> worklist_, next_;    ///< sparse mode (normals only)
  std::vector<std::uint64_t> prefix_;     ///< sparse degree prefix (size+1)
  FirstTouchArray<std::uint32_t> stamps_;  ///< dense mode: active-iff ==round_
  std::vector<vid_t> hubs_, next_hubs_;   ///< active hubs, ascending
  std::uint32_t wsize_ = 0;               ///< active normal vertices
  std::uint32_t round_ = 1;               ///< stamp epoch
  bool dense_ = false;
};

}  // namespace gcg::par::detail
