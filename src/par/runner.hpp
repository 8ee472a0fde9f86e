// Public entry point for the native multicore backend: pick a parallel
// algorithm, get a colored graph plus real wall-clock timing, per-worker
// busy times, and steal statistics. The counterpart of coloring/runner.hpp
// for runs on actual hardware threads instead of the simulated GPU.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coloring/common.hpp"
#include "coloring/priorities.hpp"
#include "graph/csr.hpp"
#include "graph/reorder.hpp"
#include "metrics/imbalance.hpp"
#include "sched/steal_queues.hpp"  // StealStats

namespace gcg::par {

class ThreadPool;

enum class ParAlgorithm {
  kSpeculative,  ///< speculative greedy + iterative conflict resolution
                 ///< (Gebremedhin–Manne); 1 thread == seq first-fit greedy
  kJpl,          ///< parallel Jones–Plassmann–Luby as a priority DAG:
                 ///< each vertex first-fits once all its higher-priority
                 ///< neighbours are colored. Equals sequential first-fit
                 ///< in priority order, for a fixed seed, at any thread
                 ///< count.
  kSteal,        ///< worklist max-min: each round commits the local maxima,
                 ///< then (while dense) the local minima, found by
                 ///< counters of uncolored neighbours — the native mirror
                 ///< of Algorithm::kSteal's schedule, with no deques.
};

const char* par_algorithm_name(ParAlgorithm a);
ParAlgorithm par_algorithm_from_name(const std::string& name);
std::vector<ParAlgorithm> all_par_algorithms();

struct ParOptions {
  unsigned threads = 0;  ///< 0 = hardware concurrency
  PriorityMode priority = PriorityMode::kRandom;
  std::uint64_t seed = 1;

  /// Vertex visit order (graph/reorder.hpp). The run colors the caller's
  /// graph itself, with no relabeled copy: speculative takes vertices in
  /// this sequence, cut into edge-balanced chunks as on the relabeled
  /// graph, and every algorithm draws priorities and ties from each
  /// vertex's position in it. The coloring is exactly the one the
  /// relabeled graph would get, and ParRun::colors[v] always refers to
  /// the input graph's v. Degree-sorted orders group similar degrees into
  /// the same chunks (the paper's layout lever); building the sequence is
  /// reported separately in ParRun::reorder_ms. kRandom uses `seed`. The
  /// *coloring* generally changes with the order (greedy first-fit is
  /// order-dependent) but stays deterministic for a fixed (order, seed,
  /// algorithm).
  Order order = Order::kNatural;

  /// Cooperative cancellation, polled by worker 0 only: between iterations
  /// for kSpeculative and kSteal (never mid-phase, so the color array stays
  /// phase-consistent), and for kJpl once before coloring and then every
  /// few hundred vertices it colors or whenever it runs out of work. When
  /// it returns true the run stops early and ParRun::cancelled is set; the
  /// partial coloring is returned as-is (for kJpl, every colored vertex
  /// already has its final color). Used by the service layer for per-job
  /// deadlines and client-initiated cancellation.
  std::function<bool()> should_cancel;
};

/// What one worker did across the whole run.
struct ParWorkerStats {
  double busy_ms = 0.0;          ///< time inside vertex-processing loops
                                 ///< (kJpl: excludes idle spinning)
  std::uint64_t chunks = 0;      ///< kSteal: max- and min-list chunks
                                 ///< processed, over all rounds (kJpl's
                                 ///< deque items are single vertices, so
                                 ///< it counts them in `vertices` only)
  std::uint64_t vertices = 0;    ///< kSteal: max- and min-list entries
                                 ///< visited, so every vertex at least
                                 ///< once (kSpeculative: active vertices
                                 ///< colored per round; kJpl: vertices
                                 ///< colored, each exactly once)
  StealStats steal;              ///< this worker's deque pops and steals
                                 ///< (kJpl)
};

struct ParRun {
  ParAlgorithm algorithm = ParAlgorithm::kSpeculative;
  std::vector<color_t> colors;
  int num_colors = 0;
  /// Rounds run; for kJpl, which has none, the longest chain of
  /// higher-priority neighbours — the round count of round-based JP.
  unsigned iterations = 0;
  unsigned threads = 1;
  /// True if opts.should_cancel stopped the run before completion; the
  /// coloring is then partial (uncolored slots hold kUncolored).
  bool cancelled = false;
  double wall_ms = 0.0;          ///< steady_clock time for the coloring
                                 ///< itself (excludes reorder_ms)
  /// Visit order applied (kNatural = none) and what building it (the
  /// permutation and its inverse) cost on top of wall_ms; 0 for kNatural.
  Order order = Order::kNatural;
  double reorder_ms = 0.0;
  /// Always 0: no algorithm has a cooperative hub pass. Kept because the
  /// end-to-end benchmark (bench/e2e) still reports it.
  std::uint64_t hub_vertices = 0;
  std::vector<ParWorkerStats> workers;
  StealStats steal;              ///< aggregate across workers (kJpl)
  /// Busy-time skew across workers (cu_* fields read "per worker", and
  /// the *_cycles fields carry milliseconds for this backend).
  ImbalanceReport imbalance;
};

/// Colors `g` on native threads. Spawns (and joins) its own pool.
ParRun run_par_coloring(const Csr& g, ParAlgorithm algorithm,
                        const ParOptions& opts = {});

/// Same, reusing a caller-owned pool (amortizes thread spawn across runs,
/// e.g. in benches). opts.threads is ignored in favor of pool.size().
ParRun run_par_coloring(ThreadPool& pool, const Csr& g, ParAlgorithm algorithm,
                        const ParOptions& opts = {});

}  // namespace gcg::par
