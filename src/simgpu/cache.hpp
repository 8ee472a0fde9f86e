// Set-associative LRU cache simulator — models the GPU's shared L2
// (GCN's per-CU L1s are tiny and mostly streaming; the L2 is what graph
// workloads actually hit). Opt-in via DeviceConfig::enable_l2_cache; the
// default model prices everything at DRAM, which matches the paper-era
// assumption that irregular gathers are memory-bound.
//
// Line keys must be globally unique per 64-byte line of host memory —
// Wave derives them from the buffer's base address, so distinct device
// buffers never alias in the cache.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/expect.hpp"

namespace gcg::simgpu {

class CacheSim {
 public:
  /// capacity_bytes / line_bytes lines, organized into `ways`-way sets.
  CacheSim(std::uint64_t capacity_bytes, unsigned line_bytes, unsigned ways);

  /// Touch a line; returns true on hit. Misses fill (allocate-on-miss, LRU
  /// eviction).
  bool access(std::uint64_t line_key);

  /// Stable identity for a device buffer: ids are assigned in first-use
  /// order, so identical simulations produce identical key streams even
  /// when the host allocator returns different addresses. The returned
  /// value is pre-shifted to compose with line offsets: key = buffer_key
  /// + line_offset.
  std::uint64_t buffer_key(const void* base);

  void reset();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t sets() const { return sets_; }
  unsigned ways() const { return ways_; }

 private:
  struct Way {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t lru = 0;  ///< last-touch stamp
  };
  std::uint64_t sets_;
  unsigned ways_;
  std::vector<Way> slots_;  ///< sets_ x ways_, row-major
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::unordered_map<const void*, std::uint64_t> buffers_;
};

}  // namespace gcg::simgpu
