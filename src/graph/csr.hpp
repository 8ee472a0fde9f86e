// Compressed Sparse Row graph storage — the device-side format the paper's
// OpenCL kernels consume (row offsets + column indices in flat arrays).
// Graphs are simple and undirected unless a builder is told otherwise:
// every undirected edge appears in both adjacency lists.
//
// Ownership seam: a Csr either OWNS its arrays (std::vector storage, the
// historical behaviour — builders, generators and parsers produce these)
// or is a VIEW borrowing read-only memory someone else anchors — e.g. a
// store::MappedGraph serving the arrays straight off an mmap'ed .gbin v2
// file. Views carry a shared keepalive handle so the backing storage
// cannot disappear under a running algorithm. Every accessor reads
// through the same spans either way, so coloring/par/apps code is
// oblivious to which mode it got.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/narrow.hpp"

namespace gcg {

using vid_t = std::uint32_t;  ///< vertex id
using eid_t = std::uint64_t;  ///< edge index into the column array

/// An immutable CSR graph. Construct via GraphBuilder or a generator
/// (owning), or via Csr::view over externally anchored memory.
class Csr {
 public:
  Csr() = default;
  Csr(std::vector<eid_t> row_offsets, std::vector<vid_t> col_indices);

  /// Borrowed-storage factory: wraps memory owned elsewhere without
  /// copying. `rows` must have size n+1 and `cols` size rows.back();
  /// `keepalive` anchors whatever owns the bytes (e.g. the mmap handle)
  /// for as long as this Csr — or any copy of it — is alive.
  ///
  /// Cheap by design: performs only O(1) shape checks (size/front/back),
  /// NOT the full O(n+m) validate(), so opening a 100 GiB mapped graph
  /// does not fault every page in. The integrity layer for views is
  /// check::validate_csr, which svc::GraphRegistry runs on every load;
  /// validate() checks only offsets and column range.
  static Csr view(std::span<const eid_t> row_offsets,
                  std::span<const vid_t> col_indices,
                  std::shared_ptr<const void> keepalive);

  // Copies of a view are views sharing the same keepalive; copies of an
  // owning Csr deep-copy. Moves never copy array data in either mode.
  Csr(const Csr& other);
  Csr& operator=(const Csr& other);
  Csr(Csr&& other) noexcept;
  Csr& operator=(Csr&& other) noexcept;
  ~Csr() = default;

  /// True if this Csr borrows external storage instead of owning it.
  bool is_view() const { return view_; }
  /// Heap bytes owned by this instance's arrays (0 for a view) — what a
  /// cache should charge for resident heap cost.
  std::size_t heap_bytes() const {
    return rows_store_.capacity() * sizeof(eid_t) +
           cols_store_.capacity() * sizeof(vid_t);
  }

  vid_t num_vertices() const { return n_; }
  /// Number of directed arcs stored (2x undirected edge count).
  eid_t num_arcs() const { return eid_t{cols_.size()}; }
  /// Undirected edge count, assuming the graph is symmetric.
  eid_t num_edges() const { return num_arcs() / 2; }

  eid_t offset(vid_t v) const { return rows_[v]; }
  vid_t degree(vid_t v) const {
    return narrow<vid_t>(rows_[v + 1] - rows_[v]);
  }
  std::span<const vid_t> neighbors(vid_t v) const {
    return cols_.subspan(rows_[v], rows_[v + 1] - rows_[v]);
  }

  std::span<const eid_t> row_offsets() const { return rows_; }
  std::span<const vid_t> col_indices() const { return cols_; }

  vid_t max_degree() const;
  double avg_degree() const;

  /// Throws std::invalid_argument describing the first structural problem
  /// (bad offsets, out-of-range column, ...). Used by loaders and tests.
  /// O(n+m): on a mapped view this faults in every page.
  void validate() const;

  bool empty() const { return n_ == 0; }

 private:
  /// Points the access spans at the owned vectors (owning mode only).
  void rebind_owned();

  vid_t n_ = 0;
  bool view_ = false;
  std::vector<eid_t> rows_store_;  ///< owning mode: size n+1, rows[0]==0
  std::vector<vid_t> cols_store_;  ///< owning mode: size rows[n]
  std::span<const eid_t> rows_;    ///< what accessors read (both modes)
  std::span<const vid_t> cols_;
  std::shared_ptr<const void> keepalive_;  ///< view mode: storage anchor
};

}  // namespace gcg
