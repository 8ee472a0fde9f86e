// The wavefront execution context: the "ISA" kernels are written against.
// Every method both performs the functional effect on host memory and
// charges the corresponding cost to the wave's counters — so divergence,
// coalescing and atomic contention are measured, not estimated.
#pragma once

#include <cstdint>
#include <span>

#include "simgpu/cache.hpp"
#include "simgpu/config.hpp"
#include "simgpu/counters.hpp"
#include "simgpu/lanevec.hpp"
#include "util/expect.hpp"

namespace gcg::simgpu {

class Wave {
 public:
  Wave(const DeviceConfig& cfg, std::uint64_t first_global_id, unsigned width,
       std::uint64_t grid_size);

  // --- identity -----------------------------------------------------------
  unsigned width() const { return width_; }
  std::uint64_t first_global_id() const { return first_id_; }
  /// Lanes whose global work-item id is inside the NDRange.
  Mask valid() const { return valid_; }
  /// Per-lane global work-item ids.
  const Vec<std::uint32_t>& global_ids() const { return gids_; }

  // --- compute cost -------------------------------------------------------
  /// Issue `instructions` vector ALU instructions under mask `m`.
  void valu(Mask m, double instructions = 1.0);
  /// Issue scalar (wave-uniform) instructions.
  void salu(double instructions = 1.0);

  // --- memory -------------------------------------------------------------
  /// Gather mem[idx[lane]] for active lanes. Counts one memory instruction
  /// and as many 64B-line transactions as distinct lines touched.
  template <class T, class I>
  Vec<T> load(std::span<const T> mem, const Vec<I>& idx, Mask m) {
    charge_gather(mem.data(), idx, sizeof(T), m, mem.size());
    Vec<T> out;
    for (unsigned i = 0; i < width_; ++i) {
      if (m.test(i)) out[i] = mem[static_cast<std::size_t>(idx[i])];
    }
    return out;
  }

  /// Scatter val[lane] -> mem[idx[lane]] for active lanes. Lane order within
  /// the wave resolves same-address collisions (higher lane wins), matching
  /// the unspecified-but-consistent behaviour of real hardware.
  template <class T, class I>
  void store(std::span<T> mem, const Vec<I>& idx, const Vec<T>& val, Mask m) {
    charge_gather(mem.data(), idx, sizeof(T), m, mem.size());
    for (unsigned i = 0; i < width_; ++i) {
      if (m.test(i)) mem[static_cast<std::size_t>(idx[i])] = val[i];
    }
  }

  /// Wave-uniform load of a single element (scalar memory path).
  template <class T>
  T load_uniform(std::span<const T> mem, std::size_t idx) {
    GCG_EXPECT(idx < mem.size());
    cost_.mem_instructions += 1;
    cost_.mem_transactions += 1;
    cost_.salu_instructions += 1;
    touch_uniform(mem.data(), idx, sizeof(T));
    return mem[idx];
  }

  /// Wave-uniform store of a single element (e.g. one result per wave).
  template <class T>
  void store_uniform(std::span<T> mem, std::size_t idx, T val) {
    GCG_EXPECT(idx < mem.size());
    cost_.mem_instructions += 1;
    cost_.mem_transactions += 1;
    touch_uniform(mem.data(), idx, sizeof(T));
    mem[idx] = val;
  }

  // --- atomics (functionally immediate; cost models serialization) --------
  /// Per-lane atomic AND (bit-clearing flags, e.g. knock-out votes).
  template <class T, class I>
  Vec<T> atomic_and(std::span<T> mem, const Vec<I>& idx, const Vec<T>& val, Mask m) {
    charge_atomic(idx, m);
    Vec<T> out;
    for (unsigned i = 0; i < width_; ++i) {
      if (!m.test(i)) continue;
      T& cell = mem[static_cast<std::size_t>(idx[i])];
      out[i] = cell;
      cell = static_cast<T>(cell & val[i]);
    }
    return out;
  }

  /// Wave-uniform fetch-add executed by one lane (the idiom kernels use to
  /// reserve a block of queue slots for the whole wave).
  template <class T>
  T atomic_add_uniform(std::span<T> mem, std::size_t idx, T val) {
    GCG_EXPECT(idx < mem.size());
    cost_.atomic_instructions += 1;
    const T old = mem[idx];
    mem[idx] = static_cast<T>(old + val);
    return old;
  }

  // --- cross-lane ---------------------------------------------------------
  /// Exclusive prefix sum of ones under mask: out[lane] = #active lanes
  /// before `lane`. The compaction primitive.
  Vec<std::uint32_t> rank_within(Mask m) {
    valu(m, reduce_cost());
    Vec<std::uint32_t> out;
    std::uint32_t r = 0;
    for (unsigned i = 0; i < width_; ++i) {
      if (m.test(i)) out[i] = r++;
    }
    return out;
  }

  void barrier_marker() { cost_.barriers += 1; }

  // --- accounting ---------------------------------------------------------
  const WaveCost& cost() const { return cost_; }
  WaveCost& mutable_cost() { return cost_; }
  const DeviceConfig& config() const { return cfg_; }

  /// Route this wave's line traffic through an L2 model (owned elsewhere,
  /// typically by the Device). Null = no cache (everything misses).
  void attach_cache(CacheSim* cache) { cache_ = cache; }

 private:
  double reduce_cost() const;  ///< log2(width) instructions

  template <class T, class I>
  std::uint64_t charge_gather(const T* base, const Vec<I>& idx,
                              std::size_t elem, Mask m, std::size_t limit) {
    // Charges one memory instruction plus one transaction per distinct
    // cache line touched by active lanes; returns the line count. Lines
    // are computed from buffer *offsets* (device buffers are line-aligned)
    // so counts do not depend on host allocator addresses.
    cost_.mem_instructions += 1;
    std::uint64_t lines_seen = 0;
    // Degenerate-free small-set dedup: collect line ids, O(active^2) worst
    // case but active <= 64 and typical access patterns hit few lines.
    std::uint64_t lines[kMaxLanes];
    for (unsigned i = 0; i < width_; ++i) {
      if (!m.test(i)) continue;
      const auto a = static_cast<std::uint64_t>(idx[i]);
      GCG_EXPECT(a < limit);
      const std::uint64_t line = a * elem / cfg_.cacheline_bytes;
      bool dup = false;
      for (std::uint64_t k = 0; k < lines_seen; ++k) dup |= (lines[k] == line);
      if (!dup) lines[lines_seen++] = line;
    }
    cost_.mem_transactions += lines_seen;
    if (cache_ && lines_seen > 0) {
      const std::uint64_t buffer = cache_->buffer_key(base);
      std::uint64_t hit = 0;
      for (std::uint64_t k = 0; k < lines_seen; ++k) {
        if (cache_->access(buffer + lines[k])) ++hit;
      }
      cost_.mem_lines_hit += hit;
      if (hit == lines_seen) cost_.mem_instructions_hit += 1;
    }
    return lines_seen;
  }

  template <class T>
  void touch_uniform(const T* base, std::size_t idx, std::size_t elem) {
    if (!cache_) return;
    const std::uint64_t line = idx * elem / cfg_.cacheline_bytes;
    if (cache_->access(cache_->buffer_key(base) + line)) {
      cost_.mem_lines_hit += 1;
      cost_.mem_instructions_hit += 1;
    }
  }

  template <class I>
  void charge_atomic(const Vec<I>& idx, Mask m) {
    cost_.atomic_instructions += 1;
    // Conflict degree: lanes beyond the first touching each address.
    unsigned extra = 0;
    for (unsigned i = 0; i < width_; ++i) {
      if (!m.test(i)) continue;
      for (unsigned j = 0; j < i; ++j) {
        if (m.test(j) && idx[j] == idx[i]) {
          ++extra;
          break;
        }
      }
    }
    cost_.atomic_extra_serializations += extra;
  }

  const DeviceConfig& cfg_;
  CacheSim* cache_ = nullptr;
  std::uint64_t first_id_;
  unsigned width_;
  Mask valid_;
  Vec<std::uint32_t> gids_;
  WaveCost cost_;
};

}  // namespace gcg::simgpu
