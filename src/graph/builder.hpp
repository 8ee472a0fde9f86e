// Edge-list accumulator that produces clean CSR graphs: symmetrized,
// deduplicated, self-loop-free, sorted adjacency — the invariants every
// coloring kernel in this library relies on, and the one contract
// check::validate_csr checks.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace gcg {

class GraphBuilder {
 public:
  explicit GraphBuilder(vid_t num_vertices);

  void reserve(std::size_t edges) { edges_.reserve(edges); }
  void add_edge(vid_t u, vid_t v);
  vid_t num_vertices() const { return n_; }

  /// Consumes the accumulated edges and builds the CSR: (v,u) is added
  /// for every (u,v), self loops and parallel edges are dropped, and
  /// every adjacency list is sorted ascending.
  Csr build();

  /// Convenience: build a CSR directly from an edge list.
  static Csr from_edges(vid_t n,
                        const std::vector<std::pair<vid_t, vid_t>>& edges);

 private:
  vid_t n_;
  std::vector<std::pair<vid_t, vid_t>> edges_;
};

}  // namespace gcg
