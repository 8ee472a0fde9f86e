// Random-graph generators: Erdős–Rényi (uniform) and random geometric
// (stand-in for the DIMACS-10 rgg_* inputs: spatially local, modest degree
// variance).
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace gcg {

/// G(n, m): exactly m distinct undirected edges, uniform without replacement.
Csr make_erdos_renyi_gnm(vid_t n, eid_t m, std::uint64_t seed = 1);

/// Random geometric graph: n points uniform in the unit square, edge iff
/// distance <= radius. Grid-bucketed; O(n + m) expected.
Csr make_random_geometric(vid_t n, double radius, std::uint64_t seed = 1);

}  // namespace gcg
