// RAII wrapper around a read-only, shared file mapping — the single
// place in the codebase that calls mmap/munmap/mincore (a gcg_lint rule
// bans raw mmap everywhere else). Centralizing the unmap in one shared
// handle is what makes Csr views safe: every view holds a shared_ptr to
// the Mapping (possibly through a MappedGraph), so the bytes outlive the
// last reader no matter what the cache evicts.
//
// Thread safety: a Mapping is immutable after construction — the pages
// are PROT_READ and no member mutates state after the constructor
// returns (residency() only reads kernel state). Any number of threads
// may share one Mapping through shared_ptr without locking; that is why
// this layer carries no sync::Mutex and no capability annotations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace gcg::store {

/// How many of the mapping's pages are currently resident in the page
/// cache (mincore snapshot) — the store's observability hook.
struct ResidencyStats {
  std::size_t resident_pages = 0;
  std::size_t total_pages = 0;
  double ratio() const {
    return total_pages ? static_cast<double>(resident_pages) /
                             static_cast<double>(total_pages)
                       : 0.0;
  }
};

class Mapping {
 public:
  /// Maps the first `size` bytes of the open file `fd` read-only
  /// (PROT_READ, MAP_SHARED); `path` only names it in messages. The fd
  /// stays the caller's and may be closed once this returns. Throws
  /// MappingError when the mmap failed, so the caller can read the same
  /// fd as a stream instead.
  static std::shared_ptr<const Mapping> map(int fd, std::size_t size,
                                            const std::string& path);

  ~Mapping();
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// mincore snapshot of how much of the file is resident right now.
  ResidencyStats residency() const;

  static std::size_t page_size();

 private:
  Mapping() = default;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

/// Thrown when mmap itself failed — the signal for MappedGraph's
/// graceful fallback to a stream read.
class MappingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace gcg::store
