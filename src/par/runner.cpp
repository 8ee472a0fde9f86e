#include "par/runner.hpp"

#include <chrono>
#include <stdexcept>

#include "par/detail/driver.hpp"
#include "par/pool.hpp"

namespace gcg::par {

const char* par_algorithm_name(ParAlgorithm a) {
  switch (a) {
    case ParAlgorithm::kSpeculative: return "speculative";
    case ParAlgorithm::kJpl: return "jpl";
    case ParAlgorithm::kSteal: return "steal";
  }
  return "?";
}

ParAlgorithm par_algorithm_from_name(const std::string& name) {
  for (ParAlgorithm a : all_par_algorithms()) {
    if (name == par_algorithm_name(a)) return a;
  }
  throw std::invalid_argument("unknown par algorithm: " + name);
}

std::vector<ParAlgorithm> all_par_algorithms() {
  return {ParAlgorithm::kSpeculative, ParAlgorithm::kJpl, ParAlgorithm::kSteal};
}

namespace {

/// The core run on the graph exactly as given (no reordering).
ParRun run_here(ThreadPool& pool, const Csr& g, ParAlgorithm algorithm,
                const ParOptions& opts) {
  detail::DriverState st(pool, g, opts, algorithm);
  const auto t0 = std::chrono::steady_clock::now();
  switch (algorithm) {
    case ParAlgorithm::kSpeculative:
      detail::run_speculative(st);
      break;
    case ParAlgorithm::kJpl:
      detail::run_jpl(st);
      break;
    case ParAlgorithm::kSteal:
      detail::run_steal(st);
      break;
  }
  const auto t1 = std::chrono::steady_clock::now();
  st.run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  st.run.colors = std::move(st.colors);
  st.run.num_colors = count_colors(st.run.colors);

  std::vector<double> busy;
  busy.reserve(st.run.workers.size());
  for (const ParWorkerStats& w : st.run.workers) busy.push_back(w.busy_ms);
  st.run.imbalance = summarize_worker_times(busy);
  return std::move(st.run);
}

}  // namespace

ParRun run_par_coloring(ThreadPool& pool, const Csr& g, ParAlgorithm algorithm,
                        const ParOptions& opts) {
  if (opts.order == Order::kNatural) return run_here(pool, g, algorithm, opts);

  // Reorder pipeline: permute, color the relabeled graph, unmap. The
  // permutation satisfies perm[old] = new, so the color of the caller's
  // vertex v is the relabeled run's color of perm[v]. Unmapping changes
  // neither validity (relabeling preserves adjacency) nor the palette, so
  // num_colors carries over.
  const auto r0 = std::chrono::steady_clock::now();
  const std::vector<vid_t> perm = make_order(g, opts.order, opts.seed);
  const Csr relabeled = apply_order(g, perm);
  const auto r1 = std::chrono::steady_clock::now();

  ParRun run = run_here(pool, relabeled, algorithm, opts);

  const auto r2 = std::chrono::steady_clock::now();
  std::vector<color_t> unmapped(run.colors.size());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    unmapped[v] = run.colors[perm[v]];
  }
  const auto r3 = std::chrono::steady_clock::now();
  run.colors = std::move(unmapped);
  run.order = opts.order;
  run.reorder_ms =
      std::chrono::duration<double, std::milli>(r1 - r0).count() +
      std::chrono::duration<double, std::milli>(r3 - r2).count();
  return run;
}

ParRun run_par_coloring(const Csr& g, ParAlgorithm algorithm,
                        const ParOptions& opts) {
  ThreadPool pool(opts.threads);
  return run_par_coloring(pool, g, algorithm, opts);
}

}  // namespace gcg::par
