// Shared coloring types: the color domain, the device-side view of a CSR
// graph, and small helpers used by every algorithm.
#pragma once

#include <cstdint>
#include <span>

#include "graph/csr.hpp"

namespace gcg {

using color_t = std::int32_t;
inline constexpr color_t kUncolored = -1;

/// The spans a kernel receives — mirrors the OpenCL buffer arguments.
struct DeviceGraph {
  std::span<const eid_t> rows;
  std::span<const vid_t> cols;
  vid_t n = 0;

  static DeviceGraph of(const Csr& g) {
    return {g.row_offsets(), g.col_indices(), g.num_vertices()};
  }
};

/// Number of distinct colors used (ignores kUncolored entries).
int count_colors(std::span<const color_t> colors);

/// Renumber colors densely to 0..k-1 preserving relative order of first
/// appearance; returns k. Max-min coloring can leave gaps (an iteration
/// may produce a max class but an empty min class); benches report the
/// dense count.
int compact_colors(std::span<color_t> colors);

}  // namespace gcg
