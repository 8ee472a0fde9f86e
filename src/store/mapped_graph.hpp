// Zero-copy graph handle: opens a .gbin v2 file via mmap(PROT_READ,
// MAP_SHARED) and serves its CSR arrays as a borrowed-storage Csr view —
// no parse, no heap copy, load time independent of graph size. The
// second open of the same file is near-instant because the sections are
// already in the page cache, and graphs far larger than RAM stay
// servable: the kernel pages sections in and out on demand.
//
// Input the kernel cannot map — a FIFO or other non-regular file, or a
// regular file whose mmap failed — is streamed through load_binary from
// the same descriptor into an owning heap Csr, so callers always get a
// working graph; is_mapped() reports which path was taken. The path is
// opened exactly once either way (a second open of a drained FIFO would
// block forever).
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
  /// Opens the .gbin v2 file at `path`: maps it when it is a non-empty
  /// regular file, streams it otherwise. Throws std::runtime_error on
  /// missing, corrupt or truncated input. A failed mmap never throws:
  /// it falls back to the stream read.
  static std::shared_ptr<const MappedGraph> open(const std::string& path,
                                                 const OpenOptions& opts = {});

  /// The graph. A view over the mapping when is_mapped(), an owning heap
  /// Csr after a stream read. Copying the returned reference's object (Csr
  /// copy) is safe in both modes — views share the mapping anchor.
  const Csr& graph() const { return graph_; }

  bool is_mapped() const { return mapping_ != nullptr; }
  /// On-disk size — what a cache should charge for a mapped entry
  /// (its heap cost is ~sizeof(Csr)). The bytes read after a stream read.
  std::size_t file_bytes() const { return file_bytes_; }
  /// The validated header, on either path.
  const HeaderV2& header() const { return header_; }
  const std::string& path() const { return path_; }

  /// Page-cache residency of the mapped file (everything "resident"
  /// after a stream read — the copy is the residency).
  ResidencyStats residency() const;

 private:
  MappedGraph() = default;

  std::shared_ptr<const Mapping> mapping_;  ///< null after a stream read
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

}  // namespace gcg::store
