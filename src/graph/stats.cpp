#include "graph/stats.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "util/narrow.hpp"
#include "util/stats.hpp"

namespace gcg {

GraphStats compute_stats(const Csr& g) {
  GraphStats s;
  s.n = g.num_vertices();
  s.arcs = g.num_arcs();
  SampleStats deg;
  deg.reserve(s.n);
  for (vid_t v = 0; v < s.n; ++v) {
    const vid_t d = g.degree(v);
    deg.add(static_cast<double>(d));
    if (d == 0) ++s.isolated_vertices;
  }
  if (s.n > 0) {
    s.avg_degree = deg.summary().mean();
    s.min_degree = narrow<vid_t>(deg.summary().min());
    s.max_degree = narrow<vid_t>(deg.summary().max());
    s.degree_stddev = deg.summary().stddev();
    s.degree_cv = deg.summary().cv();
    s.degree_gini = deg.gini();
  }
  s.connected_components = connected_components(g);
  return s;
}

Histogram degree_histogram(const Csr& g) {
  unsigned maxlog = 1;
  const vid_t dmax = g.max_degree();
  while ((1u << maxlog) < dmax && maxlog < 31) ++maxlog;
  Histogram h = Histogram::log2(maxlog + 1);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    h.add(static_cast<double>(g.degree(v)));
  }
  return h;
}

vid_t connected_components(const Csr& g, std::vector<vid_t>* labels) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> label(n, n);  // n = unvisited sentinel
  vid_t components = 0;
  std::vector<vid_t> stack;
  for (vid_t root = 0; root < n; ++root) {
    if (label[root] != n) continue;
    const vid_t id = components++;
    label[root] = id;
    stack.push_back(root);
    while (!stack.empty()) {
      const vid_t u = stack.back();
      stack.pop_back();
      for (vid_t v : g.neighbors(u)) {
        if (label[v] == n) {
          label[v] = id;
          stack.push_back(v);
        }
      }
    }
  }
  if (labels) *labels = std::move(label);
  return components;
}

std::string describe(const GraphStats& s) {
  std::ostringstream os;
  os << "n=" << s.n << " arcs=" << s.arcs << " davg=" << s.avg_degree
     << " dmax=" << s.max_degree << " cv=" << s.degree_cv
     << " gini=" << s.degree_gini << " cc=" << s.connected_components;
  return os.str();
}

}  // namespace gcg
