// Small structured graphs with known chromatic numbers — the backbone of
// the correctness test suite (chi(path)=2, chi(C_odd)=3, chi(K_n)=n, ...).
// lint: allow-next-line(unreached-header) fixtures the graph, coloring and service tests build
#pragma once

#include "graph/csr.hpp"

namespace gcg {

Csr make_path(vid_t n);
Csr make_cycle(vid_t n);
Csr make_star(vid_t leaves);      ///< vertex 0 is the hub
Csr make_complete(vid_t n);
Csr make_complete_bipartite(vid_t left, vid_t right);
Csr make_binary_tree(vid_t n);    ///< vertex i's children are 2i+1, 2i+2
Csr make_empty(vid_t n);          ///< n isolated vertices
/// Petersen graph: 10 vertices, 15 edges, chromatic number 3.
Csr make_petersen();

}  // namespace gcg
