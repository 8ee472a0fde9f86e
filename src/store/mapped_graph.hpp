// Zero-copy graph handle: opens a .gbin v2 file via mmap(PROT_READ,
// MAP_SHARED) and serves its CSR arrays as a borrowed-storage Csr view —
// no parse, no heap copy, load time independent of graph size. The
// second open of the same file is near-instant because the sections are
// already in the page cache, and graphs far larger than RAM stay
// servable: the kernel pages sections in and out on demand.
//
// When mmap itself fails (exotic filesystem, sandbox) the open falls
// back to an ordinary heap read of the same file, so callers always get
// a working graph; is_mapped() reports which path was taken.
//
// Thread safety: like store::Mapping, a MappedGraph is immutable after
// open() returns — the view, header, and backing bytes never change, so
// concurrent readers need no lock and this layer deliberately has no
// sync::Mutex or capability annotations. Lifetime, not locking, is the
// contract: hold the shared_ptr while reading the view.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "graph/csr.hpp"
#include "store/format.hpp"
#include "store/mapping.hpp"

namespace gcg::store {

struct OpenOptions {
  /// Verify the per-section checksums on open. Off by default: the
  /// verify is a second full pass over both sections, on top of the CSR
  /// validation every registry load runs — turn it on for untrusted
  /// files or in integrity sweeps. (Heap loads through graph/io always
  /// verify; they touch every byte anyway.)
  bool verify_checksums = false;
};

class MappedGraph {
 public:
  /// Opens `path` (must be .gbin v2 — check with is_gbin_v2_file first
  /// when dispatching). Throws std::runtime_error on missing/corrupt
  /// files. A failed mmap never throws: it falls back to a heap read.
  static std::shared_ptr<const MappedGraph> open(const std::string& path,
                                                 const OpenOptions& opts = {});

  /// The graph. A view over the mapping when is_mapped(), an owning heap
  /// Csr after fallback. Copying the returned reference's object (Csr
  /// copy) is safe in both modes — views share the mapping anchor.
  const Csr& graph() const { return graph_; }

  bool is_mapped() const { return mapping_ != nullptr; }
  /// On-disk size — what a cache should charge for a mapped entry
  /// (its heap cost is ~sizeof(Csr)).
  std::size_t file_bytes() const { return file_bytes_; }
  const HeaderV2& header() const { return header_; }
  const std::string& path() const { return path_; }

  /// Page-cache residency of the mapped file (everything "resident"
  /// after the heap fallback — the copy is the residency).
  ResidencyStats residency() const;

 private:
  MappedGraph() = default;

  std::shared_ptr<const Mapping> mapping_;  ///< null after heap fallback
  Csr graph_;
  HeaderV2 header_{};
  std::size_t file_bytes_ = 0;
  std::string path_;
};

/// Aliasing handle: a shared_ptr<const Csr> that keeps the whole
/// MappedGraph (and therefore the mapping) alive — the shape the
/// GraphRegistry caches, so eviction can never unmap bytes a running
/// job still reads.
std::shared_ptr<const Csr> graph_view(std::shared_ptr<const MappedGraph> g);

/// True if `path` exists and starts with the v2 magic (an 8-byte sniff,
/// not a full validation).
bool is_gbin_v2_file(const std::string& path);

}  // namespace gcg::store
