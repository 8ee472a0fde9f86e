#include "check/csr.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/narrow.hpp"

namespace gcg::check {

const char* csr_defect_name(CsrDefect d) {
  switch (d) {
    case CsrDefect::kEmptyOffsets: return "empty_offsets";
    case CsrDefect::kBadFirstOffset: return "bad_first_offset";
    case CsrDefect::kNonMonotoneOffsets: return "non_monotone_offsets";
    case CsrDefect::kArcCountMismatch: return "arc_count_mismatch";
    case CsrDefect::kColumnOutOfRange: return "column_out_of_range";
    case CsrDefect::kUnsortedNeighbors: return "unsorted_neighbors";
    case CsrDefect::kDuplicateNeighbor: return "duplicate_neighbor";
    case CsrDefect::kSelfLoop: return "self_loop";
    case CsrDefect::kAsymmetricEdge: return "asymmetric_edge";
  }
  return "unknown";
}

std::string CsrIssue::to_string() const {
  std::ostringstream os;
  os << csr_defect_name(defect);
  switch (defect) {
    case CsrDefect::kEmptyOffsets:
      os << ": row-offset array is empty";
      break;
    case CsrDefect::kBadFirstOffset:
      os << ": rows[0] = " << value << ", expected 0";
      break;
    case CsrDefect::kNonMonotoneOffsets:
      os << ": rows[" << index << "] = " << value << " is below rows["
         << (index - 1) << "]";
      break;
    case CsrDefect::kArcCountMismatch:
      os << ": rows[n] = " << value << " but |cols| = " << index;
      break;
    case CsrDefect::kColumnOutOfRange:
      os << ": cols[" << index << "] = " << value << " out of range in row "
         << row;
      break;
    case CsrDefect::kUnsortedNeighbors:
      os << ": row " << row << " not ascending at cols[" << index << "] = "
         << value;
      break;
    case CsrDefect::kDuplicateNeighbor:
      os << ": row " << row << " repeats neighbour " << value;
      break;
    case CsrDefect::kSelfLoop:
      os << ": vertex " << row << " lists itself";
      break;
    case CsrDefect::kAsymmetricEdge:
      os << ": arc " << row << "->" << value << " has no reverse arc";
      break;
  }
  return os.str();
}

namespace {

/// One linear sweep that proves a CSR with sound offsets is well formed:
/// every row strictly ascending and in range, no self loop, and every arc
/// matched by its mate.
///
/// Rows are visited in ascending u, so the mates of row v's lower part
/// (its entries below v) are met in the order they sit in that row: the
/// mate of each upper arc u->v must be the next unclaimed entry of row v.
/// claimed[v] counts row v's claimed entries; a row of distinct in-range
/// vertices has fewer than n of them, so a vid_t holds the count. When
/// the sweep reaches row u, its lower part must be exactly its claimed
/// prefix, so the rest of the row (its upper part) is the only part read
/// here, and it must ascend strictly above u.
///
/// False means some check failed; the caller's exact sweeps then name the
/// first defect in row order, so the issue never depends on this pass.
bool well_formed_ascending(std::span<const eid_t> rows,
                           std::span<const vid_t> cols, vid_t n) {
  std::vector<vid_t> claimed(n, 0);
  for (vid_t u = 0; u < n; ++u) {
    const eid_t end = rows[u + 1];
    eid_t k = rows[u] + claimed[u];
    vid_t prev = u;
    for (; k < end; ++k) {
      const vid_t v = cols[k];
      // v <= prev: a self loop, an unclaimed lower arc, or a row out of
      // order.
      if (v <= prev || v >= n) return false;
      prev = v;
      const eid_t mate = rows[v] + claimed[v];
      if (mate >= rows[v + 1] || cols[mate] != u) return false;
      ++claimed[v];
    }
  }
  return true;
}

}  // namespace

std::optional<CsrIssue> validate_csr(std::span<const eid_t> rows,
                                     std::span<const vid_t> cols) {
  if (rows.empty()) {
    return CsrIssue{CsrDefect::kEmptyOffsets, 0, 0, 0};
  }
  if (rows.front() != 0) {
    return CsrIssue{CsrDefect::kBadFirstOffset, 0, rows.front(), 0};
  }
  const vid_t n = narrow<vid_t>(rows.size() - 1);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] < rows[i - 1]) {
      return CsrIssue{CsrDefect::kNonMonotoneOffsets,
                      narrow<vid_t>(i - 1), rows[i], i};
    }
  }
  if (rows.back() != cols.size()) {
    return CsrIssue{CsrDefect::kArcCountMismatch, n, rows.back(), cols.size()};
  }
  if (well_formed_ascending(rows, cols, n)) return std::nullopt;

  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      if (v >= n) {
        return CsrIssue{CsrDefect::kColumnOutOfRange, u, v,
                        narrow<std::size_t>(k)};
      }
      if (v == u) {
        return CsrIssue{CsrDefect::kSelfLoop, u, v,
                        narrow<std::size_t>(k)};
      }
      if (k > rows[u]) {
        const vid_t prev = cols[k - 1];
        if (v == prev) {
          return CsrIssue{CsrDefect::kDuplicateNeighbor, u, v,
                          narrow<std::size_t>(k)};
        }
        if (v < prev) {
          return CsrIssue{CsrDefect::kUnsortedNeighbors, u, v,
                          narrow<std::size_t>(k)};
        }
      }
    }
  }

  for (vid_t u = 0; u < n; ++u) {
    for (eid_t k = rows[u]; k < rows[u + 1]; ++k) {
      const vid_t v = cols[k];
      if (!std::binary_search(cols.data() + rows[v],
                              cols.data() + rows[v + 1], u)) {
        return CsrIssue{CsrDefect::kAsymmetricEdge, u, v,
                        narrow<std::size_t>(k)};
      }
    }
  }
  return std::nullopt;
}

std::optional<CsrIssue> validate_csr(const Csr& g) {
  return validate_csr(g.row_offsets(), g.col_indices());
}

}  // namespace gcg::check
