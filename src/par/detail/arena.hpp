// First-touch allocation for the large per-run arrays of the native
// backend (colors, frontier buffers, stamp bitmaps).
// Internal header.
//
// A std::vector constructor touches every page from the constructing
// thread, so on a NUMA machine the whole array lands on that thread's
// node and every other node pays remote-access latency for its share of
// the run. FirstTouchArray allocates raw (untouched) memory and has each
// pool worker write its own contiguous slice; under Linux's default
// first-touch policy, with workers pinned to their nodes (see
// ThreadPool), each slice's pages are then node-local to the worker that
// will predominantly access them — the contiguous worker slices here
// mirror the contiguous vertex ranges the schedulers hand out. On a
// single-node machine this is just a parallel fill and behaves exactly
// like the vector it replaces.
#pragma once

#include <cstddef>
#include <memory>
#include <new>  // lint: allow(naked-new) header name, not a new-expression
#include <span>
#include <type_traits>

#include "par/pool.hpp"

namespace gcg::par::detail {

template <class T>
class FirstTouchArray {
  static_assert(std::is_trivial_v<T>,
                "raw first-touch storage cannot run constructors");

 public:
  FirstTouchArray() = default;

  /// n slots, slot i initialized to gen(i) by the worker owning slice i.
  template <class Gen>
    requires std::is_invocable_r_v<T, Gen, std::size_t>
  FirstTouchArray(ThreadPool& pool, std::size_t n, Gen gen) : size_(n) {
    if (n == 0) return;
    // Raw untouched storage is the whole point: the pages must not be
    // written before the workers first-touch them. Ownership goes
    // straight into buf_ (unique_ptr) on the next line.
    buf_.reset(static_cast<T*>(
        // lint: allow-next-line(naked-new) untouched pages for first-touch
        ::operator new(n * sizeof(T), std::align_val_t{64})));
    T* p = buf_.get();
    const std::size_t workers = pool.size();
    pool.run([&](unsigned w) {
      // Disjoint contiguous slices; the pool barrier publishes them all.
      const std::size_t b = n * w / workers;
      const std::size_t e = n * (w + 1) / workers;
      for (std::size_t i = b; i < e; ++i) p[i] = gen(i);
    });
  }

  /// n slots, all initialized to `value`.
  FirstTouchArray(ThreadPool& pool, std::size_t n, T value)
      : FirstTouchArray(pool, n, [value](std::size_t) { return value; }) {}

  T* data() { return buf_.get(); }
  const T* data() const { return buf_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return buf_[i]; }
  const T& operator[](std::size_t i) const { return buf_[i]; }
  T* begin() { return buf_.get(); }
  T* end() { return buf_.get() + size_; }
  const T* begin() const { return buf_.get(); }
  const T* end() const { return buf_.get() + size_; }
  operator std::span<T>() { return {data(), size_}; }
  operator std::span<const T>() const { return {data(), size_}; }
  /// Explicit const view for contexts where overload resolution would
  /// otherwise weigh the conversion operator against span's range
  /// constructor (gcc reports that tie under -Wconversion).
  std::span<const T> cspan() const { return {data(), size_}; }

  void swap(FirstTouchArray& other) {
    buf_.swap(other.buf_);
    std::swap(size_, other.size_);
  }

 private:
  struct Free {
    void operator()(T* p) const {
      // lint: allow-next-line(naked-delete) pairs the aligned operator new
      ::operator delete(p, std::align_val_t{64});
    }
  };
  std::unique_ptr<T[], Free> buf_;
  std::size_t size_ = 0;
};

}  // namespace gcg::par::detail
