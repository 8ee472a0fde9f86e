// Producing side of the graph store: serialize a Csr as .gbin v2, or
// convert ("pack") any loadable graph file into the store format so the
// service can mmap it from then on. Writes go through a temp file +
// rename so a crash mid-write never leaves a half-written store file
// behind for a later mmap to trip over.
#pragma once

#include <string>

#include "graph/csr.hpp"

namespace gcg::store {

/// Writes `g` to `path` in .gbin v2 layout (atomic: temp file + rename).
/// Throws std::runtime_error on I/O failure.
void write_gbin_v2(const std::string& path, const Csr& g);

/// Result of pack(): where the packed file landed and what it cost.
struct PackResult {
  std::string output;        ///< the v2 file written (or reused)
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
  bool reused = false;       ///< output already existed as valid v2
};

/// Converts `input` (any extension load_graph accepts) into a .gbin v2
/// file at `output`. With `reuse_existing`, an `output` whose v2 header
/// validates and whose size matches the sections it places is kept
/// as-is — the pack-on-first-load fast path for tools and the registry.
/// Any other `output` (a torn or truncated pack, say) is rewritten.
PackResult pack(const std::string& input, const std::string& output,
                bool reuse_existing = false);

/// The conventional pack target for `input`: "<input>.gbin".
std::string default_pack_target(const std::string& input);

}  // namespace gcg::store
