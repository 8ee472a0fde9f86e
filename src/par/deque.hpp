// Chase–Lev work-stealing deque: single owner pushes/pops at the bottom,
// any number of thieves steal from the top. Lock-free; memory orderings
// follow Lê, Pop, Cohen, Nardelli ("Correct and Efficient Work-Stealing
// for Weak Memory Models", PPoPP'13).
//
// Fixed capacity, no growth path: a caller sizes the deque for every push
// it makes between reset()s (a round's fill, or every vertex of a run),
// so ring slots are never recycled while thieves race. Slots are left
// untouched until pushed, so a worst-case size costs memory only for the
// pages the pushes actually reach (when T is trivially constructible).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/sync.hpp"

namespace gcg::par {

template <typename T>
class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(std::uint32_t capacity = 256) {
    reserve(capacity);
  }
  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only, while no thief is active. Rounds capacity up to a power
  /// of two and empties the deque.
  void reserve(std::uint32_t capacity) {
    std::uint32_t cap = 1;
    while (cap < capacity) cap <<= 1;
    // Default-initialized: push_bottom writes a slot before any pop or
    // steal can read it.
    buffer_ = std::make_unique_for_overwrite<T[]>(cap);
    mask_ = cap - 1;
    // order: relaxed — owner-only call while no thief is active; the
    // parallel region that starts the pops and steals publishes it.
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

  /// Owner only, while no thief is active: rewind to empty without
  /// touching the buffer (the cheap between-rounds reset).
  void reset() {
    // order: relaxed — owner-only call while no thief is active.
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

  std::uint32_t capacity() const {
    return narrow<std::uint32_t>(mask_ + 1);
  }

  /// Racy size hint for victim selection — may be stale, never negative.
  std::int64_t size_estimate() const {
    // order: relaxed — advisory victim-selection hint; stale reads only
    // cost a wasted steal probe, never correctness.
    const std::int64_t d = bottom_.load(std::memory_order_relaxed) -
                           top_.load(std::memory_order_relaxed);
    return d > 0 ? d : 0;
  }

  /// Owner only.
  void push_bottom(T item) {
    // order: relaxed — bottom_ is only ever written by this owner thread.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // order: acquire pairs with thieves' seq_cst CAS on top_ so the
    // capacity assert below sees an up-to-date lower bound (PPoPP'13).
    const std::int64_t t = top_.load(std::memory_order_acquire);
    GCG_ASSERT(b - t <= to_signed(mask_));
    buffer_[to_unsigned(b) & mask_] = item;
    // order: release publishes the buffer slot write above to thieves'
    // acquire load of bottom_ in steal().
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: LIFO pop from the bottom.
  std::optional<T> pop_bottom() {
    // order: relaxed loads/stores + seq_cst fence — Lê et al. PPoPP'13
    // pop: the fence globally orders the bottom_ decrement before the
    // top_ read, which is what prevents owner and thief both taking the
    // last item; the individual accesses need no stronger order.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    sync::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t <= b) {
      T item = buffer_[to_unsigned(b) & mask_];
      if (t == b) {
        // Last element: race the thieves for it.
        // order: seq_cst CAS arbitrates owner vs thief on the single
        // remaining item (PPoPP'13); relaxed on failure — the lost race
        // needs no synchronization, the item went to the thief.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          // order: relaxed — owner-only bottom_ restore.
          bottom_.store(b + 1, std::memory_order_relaxed);
          return std::nullopt;
        }
        // order: relaxed — owner-only bottom_ restore.
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      return item;
    }
    // order: relaxed — owner-only bottom_ restore.  (was already empty)
    bottom_.store(b + 1, std::memory_order_relaxed);
    return std::nullopt;
  }

  /// Any thread: FIFO steal from the top. nullopt = empty or lost a race
  /// (callers must distinguish via external remaining-work accounting).
  std::optional<T> steal() {
    // order: acquire top_, seq_cst fence, acquire bottom_ — PPoPP'13
    // steal: the fence orders this thief's top_ read against the owner's
    // pop fence, and acquire on bottom_ pairs with push_bottom's release
    // so the buffer slot read below sees the pushed item.
    std::int64_t t = top_.load(std::memory_order_acquire);
    sync::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t < b) {
      T item = buffer_[to_unsigned(t) & mask_];
      // order: seq_cst CAS claims the slot against the owner and rival
      // thieves; relaxed on failure — a lost race abandons the attempt.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return std::nullopt;
      }
      return item;
    }
    return std::nullopt;
  }

 private:
  std::unique_ptr<T[]> buffer_;
  std::size_t mask_ = 0;
  alignas(64) sync::atomic<std::int64_t> top_{0};
  alignas(64) sync::atomic<std::int64_t> bottom_{0};
};

}  // namespace gcg::par
