#include "graph/builder.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace gcg {

GraphBuilder::GraphBuilder(vid_t num_vertices) : n_(num_vertices) {}

void GraphBuilder::add_edge(vid_t u, vid_t v) {
  GCG_EXPECT(u < n_ && v < n_);
  edges_.emplace_back(u, v);
}

Csr GraphBuilder::build() {
  std::vector<std::pair<vid_t, vid_t>> arcs;
  arcs.reserve(edges_.size() * 2);
  for (auto [u, v] : edges_) {
    if (u == v) continue;
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  edges_.clear();
  edges_.shrink_to_fit();

  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());

  std::vector<eid_t> rows(std::size_t{n_} + 1, 0);
  for (auto [u, v] : arcs) {
    (void)v;
    ++rows[u + 1];
  }
  for (std::size_t i = 1; i < rows.size(); ++i) rows[i] += rows[i - 1];

  // arcs are globally sorted, so filling in order keeps lists sorted.
  std::vector<vid_t> cols(arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) cols[i] = arcs[i].second;
  return Csr(std::move(rows), std::move(cols));
}

Csr GraphBuilder::from_edges(vid_t n,
                             const std::vector<std::pair<vid_t, vid_t>>& edges) {
  GraphBuilder b(n);
  b.reserve(edges.size());
  for (auto [u, v] : edges) b.add_edge(u, v);
  return b.build();
}

}  // namespace gcg
