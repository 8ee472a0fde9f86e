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

/// Validate raw CSR arrays against the one contract every kernel relies
/// on: sorted, duplicate-free, loop-free, symmetric adjacency. Returns
/// the first issue in row order, or nullopt if the arrays form such a
/// graph. A valid graph costs one O(V + E) sweep; an invalid one then
/// takes a row-order sweep plus one binary search of the reverse row per
/// arc, O(E log d), to name its first defect.
std::optional<CsrIssue> validate_csr(std::span<const eid_t> rows,
                                     std::span<const vid_t> cols);

/// Validate an already-constructed Csr (constructor guarantees the shape
/// invariants; this still re-checks everything, including symmetry).
std::optional<CsrIssue> validate_csr(const Csr& g);

}  // namespace gcg::check
