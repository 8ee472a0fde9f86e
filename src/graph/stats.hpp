// Structural statistics for Table 1-style suite characterization:
// size, degree distribution shape, connectivity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "util/histogram.hpp"

namespace gcg {

struct GraphStats {
  vid_t n = 0;
  eid_t arcs = 0;
  double avg_degree = 0.0;
  vid_t min_degree = 0;
  vid_t max_degree = 0;
  double degree_stddev = 0.0;
  double degree_cv = 0.0;    ///< stddev/mean — the skew axis the paper studies
  double degree_gini = 0.0;  ///< 0 = regular, ->1 = extremely skewed
  vid_t isolated_vertices = 0;
  vid_t connected_components = 0;
};

GraphStats compute_stats(const Csr& g);

/// Degree histogram in power-of-two bins (for Fig-style characterization).
Histogram degree_histogram(const Csr& g);

/// Connected components via BFS; returns component id per vertex and count.
vid_t connected_components(const Csr& g, std::vector<vid_t>* labels = nullptr);

/// One-line summary, e.g. "n=10000 m=39600 davg=7.9 dmax=12 cv=0.05 cc=1".
std::string describe(const GraphStats& s);

}  // namespace gcg
