// Structural validation of CSR adjacency data. Unlike Csr::validate()
// (which runs in the constructor and only guards against memory-unsafe
// shapes), these checks cover the full set of invariants the coloring
// algorithms rely on — monotone offsets, in-range/sorted/deduplicated
// neighbour lists, no self loops, and symmetry for undirected graphs —
// and report the first violation with enough context to debug a broken
// loader or generator.
//
// The span overload deliberately takes raw arrays so tests can feed
// malformed data that the Csr constructor would refuse to build.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>

#include "graph/csr.hpp"

namespace gcg::check {

enum class CsrDefect {
  kEmptyOffsets,       ///< row-offset array is empty (need at least [0])
  kBadFirstOffset,     ///< rows[0] != 0
  kNonMonotoneOffsets, ///< rows[i] < rows[i-1]
  kArcCountMismatch,   ///< rows[n] != cols.size()
  kColumnOutOfRange,   ///< cols[k] >= n
  kUnsortedNeighbors,  ///< adjacency list not strictly ascending
  kDuplicateNeighbor,  ///< repeated vertex in one adjacency list
  kSelfLoop,           ///< v appears in its own list
  kAsymmetricEdge,     ///< u->v present but v->u missing (undirected check)
};

const char* csr_defect_name(CsrDefect d);

struct CsrIssue {
  CsrDefect defect;
  /// Row being scanned when the defect was found (0 for offset-shape
  /// defects that are not attributable to a row).
  vid_t row = 0;
  /// Offending value: the column index, offset value, or arc count,
  /// depending on the defect.
  std::uint64_t value = 0;
  /// Flat position in the offending array (index into rows or cols).
  std::size_t index = 0;

  std::string to_string() const;
};

struct CsrCheckOptions {
  bool require_sorted = true;      ///< adjacency lists strictly ascending
  bool require_unique = true;      ///< no duplicate neighbours
  bool require_symmetric = true;   ///< undirected: every arc has a mate
  bool allow_self_loops = false;
};

/// Validate raw CSR arrays. Returns the first issue found, or nullopt if
/// the arrays form a well-formed graph under `opts`. A valid graph costs
/// one O(V + E) sweep under the default options (self loops may be
/// allowed). Relaxed options, and locating the first defect of an invalid
/// graph, take a row-order sweep plus, for symmetry, one search of the
/// reverse row per arc: O(E log d) sorted, O(E d) unsorted.
std::optional<CsrIssue> validate_csr(std::span<const eid_t> rows,
                                     std::span<const vid_t> cols,
                                     const CsrCheckOptions& opts = {});

/// Validate an already-constructed Csr (constructor guarantees the shape
/// invariants; this still re-checks everything, including symmetry).
std::optional<CsrIssue> validate_csr(const Csr& g,
                                     const CsrCheckOptions& opts = {});

}  // namespace gcg::check
