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

ParRun run_par_coloring(ThreadPool& pool, const Csr& g, ParAlgorithm algorithm,
                        const ParOptions& opts) {
  // An ordered run colors `g` itself, taking its vertices in visit order
  // with priorities drawn from each vertex's rank (driver.hpp's
  // VisitOrder), so colors[v] is already the caller's vertex v's color.
  detail::VisitOrder order;
  double reorder_ms = 0.0;
  if (opts.order != Order::kNatural) {
    const auto r0 = std::chrono::steady_clock::now();
    order.rank = make_order(g, opts.order, opts.seed);
    order.visit.resize(order.rank.size());
    for (vid_t v = 0; v < g.num_vertices(); ++v) order.visit[order.rank[v]] = v;
    const auto r1 = std::chrono::steady_clock::now();
    reorder_ms = std::chrono::duration<double, std::milli>(r1 - r0).count();
  }

  detail::DriverState st(pool, g, opts, algorithm, order);
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
  st.run.order = opts.order;
  st.run.reorder_ms = reorder_ms;
  st.run.colors = std::move(st.colors);
  st.run.num_colors = count_colors(st.run.colors);

  std::vector<double> busy;
  busy.reserve(st.run.workers.size());
  for (const ParWorkerStats& w : st.run.workers) busy.push_back(w.busy_ms);
  st.run.imbalance = summarize_worker_times(busy);
  return std::move(st.run);
}

ParRun run_par_coloring(const Csr& g, ParAlgorithm algorithm,
                        const ParOptions& opts) {
  ThreadPool pool(opts.threads);
  return run_par_coloring(pool, g, algorithm, opts);
}

}  // namespace gcg::par
