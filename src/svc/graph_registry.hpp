// Thread-safe, LRU-bounded cache of loaded/generated graphs — the service
// layer's answer to "every request re-parses the graph". Keys are either
// file paths (canonicalized, so ./g.mtx and /abs/g.mtx share one entry) or
// generator specs of the form
//
//     gen:<suite-name>?scale=<S>&seed=<N>     e.g. gen:rmat-like?scale=0.25
//
// naming an entry of the paper-evaluation suite (graph/gen/suite.hpp).
// Concurrent requests for the same key share a single load: latecomers
// block on the in-flight load instead of duplicating I/O or generation.
// Entries are handed out as shared_ptr<const Csr>, so eviction never
// invalidates a graph a running job still holds. Every graph is checked
// with check::validate_csr once, as part of its load: an invalid graph
// is a load error ("invalid_graph: <defect>..."), never a cached entry.
// A load is charged and makes room as soon as the graph is open, before
// validation pages it in, so a full cache is never kept resident
// alongside the newcomer.
//
// Store integration: a .gbin path is opened through store::MappedGraph
// and served as a zero-copy Csr view off the page cache; input that
// cannot be mapped, such as a FIFO, is streamed into a heap entry.
// Mapped entries are charged their FILE size against their own budget
// (max_mapped_bytes), not the heap budget — a mapped graph far larger
// than RAM stays servable because the kernel, not the registry, decides
// which of its pages are resident.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "graph/csr.hpp"
#include "util/sync.hpp"

namespace gcg::svc {

class GraphRegistry {
 public:
  struct Options {
    std::size_t max_entries = 16;  ///< LRU capacity in graphs
    /// LRU capacity in (approximate) heap CSR bytes across resident
    /// heap-loaded entries; whichever bound trips first evicts.
    /// Default 1 GiB. Mapped entries do not count here.
    std::size_t max_bytes = std::size_t{1} << 30;
    /// LRU capacity in file bytes across mapped (.gbin v2) entries.
    /// Deliberately huge by default: mapped bytes are page-cache
    /// backed, so this bounds address space, not RAM. Default 256 GiB.
    std::size_t max_mapped_bytes = std::size_t{1} << 38;
  };

  struct Stats {
    std::uint64_t hits = 0;      ///< served from cache (incl. in-flight joins)
    std::uint64_t misses = 0;    ///< required a load/generate
    std::uint64_t evictions = 0;
    std::uint64_t load_errors = 0;
    std::size_t entries = 0;     ///< resident graphs right now
    std::size_t bytes = 0;       ///< resident heap CSR bytes (heap entries)
    std::size_t mapped_entries = 0;  ///< of `entries`, served off mmap
    std::size_t mapped_bytes = 0;    ///< file bytes charged by mapped entries
  };

  GraphRegistry();  ///< default Options (GCC can't take `Options{}` as a
                    ///< default argument while the enclosing class is open)
  explicit GraphRegistry(Options opts);

  /// Returns the graph for `spec` (path or gen: spec), loading and
  /// validating it on first use. Throws std::runtime_error /
  /// std::invalid_argument on bad specs, unreadable files or graphs that
  /// fail validation; a failed load is not cached, so a later retry
  /// (e.g. after the file appears) attempts again. When `cache_hit` is
  /// non-null it reports whether this call was served from cache (resident
  /// entry or joining an in-flight load).
  std::shared_ptr<const Csr> acquire(const std::string& spec,
                                     bool* cache_hit = nullptr);

  /// The cache key `spec` normalizes to: weakly-canonical absolute path
  /// for files, defaults filled in and parameters ordered for gen: specs.
  /// Throws std::invalid_argument on malformed gen: specs.
  static std::string canonical_key(const std::string& spec);

  Stats stats() const;
  void clear();  ///< drop all resident entries (outstanding refs stay valid)

 private:
  using Lru = std::list<std::string>;  // front = most recent

  struct Entry {
    /// Resolves to the graph; carries the load exception on failure.
    /// shared_future so any number of waiters can join one load.
    std::shared_future<std::shared_ptr<const Csr>> future;
    std::size_t bytes = 0;    ///< LRU charge: heap bytes, or file bytes
                              ///< for mapped entries. 0 until loaded.
    bool mapped = false;      ///< charge counts against max_mapped_bytes
    bool ready = false;       ///< future resolved successfully
    Lru::iterator lru_it;
  };

  void touch(Entry& e) GCG_REQUIRES(mu_);
  void evict_to_capacity() GCG_REQUIRES(mu_);

  const Options opts_;
  mutable sync::Mutex mu_;
  std::map<std::string, Entry> entries_ GCG_GUARDED_BY(mu_);
  Lru lru_ GCG_GUARDED_BY(mu_);
  Stats stats_ GCG_GUARDED_BY(mu_);
};

}  // namespace gcg::svc
