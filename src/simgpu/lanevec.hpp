// SIMT register file primitives: a per-lane value vector (`Vec<T>`) and an
// execution mask (`Mask`). Kernels are written against these exactly as GPU
// vector ISA operates: every operation is masked, divergence is explicit.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "simgpu/config.hpp"
#include "util/expect.hpp"

namespace gcg::simgpu {

/// Execution mask over up to kMaxLanes lanes.
class Mask {
 public:
  constexpr Mask() = default;
  constexpr explicit Mask(std::uint64_t bits) : bits_(bits) {}

  static constexpr Mask none() { return Mask(0); }
  static constexpr Mask full(unsigned width) {
    return Mask(width >= 64 ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << width) - 1));
  }
  static constexpr Mask lane(unsigned i) { return Mask(std::uint64_t{1} << i); }

  constexpr bool test(unsigned i) const { return (bits_ >> i) & 1u; }
  constexpr void set(unsigned i) { bits_ |= std::uint64_t{1} << i; }
  constexpr void clear(unsigned i) { bits_ &= ~(std::uint64_t{1} << i); }

  constexpr bool any() const { return bits_ != 0; }
  constexpr unsigned count() const {
    return static_cast<unsigned>(std::popcount(bits_));
  }
  constexpr std::uint64_t bits() const { return bits_; }

  constexpr Mask operator&(Mask o) const { return Mask(bits_ & o.bits_); }
  constexpr Mask operator|(Mask o) const { return Mask(bits_ | o.bits_); }
  constexpr Mask operator^(Mask o) const { return Mask(bits_ ^ o.bits_); }
  /// Complement *within* `width` lanes.
  constexpr Mask andnot(Mask o) const { return Mask(bits_ & ~o.bits_); }
  constexpr Mask& operator&=(Mask o) { bits_ &= o.bits_; return *this; }
  constexpr Mask& operator|=(Mask o) { bits_ |= o.bits_; return *this; }
  constexpr bool operator==(const Mask&) const = default;

  /// Index of lowest set lane; undefined when !any().
  constexpr unsigned first() const {
    return static_cast<unsigned>(std::countr_zero(bits_));
  }

 private:
  std::uint64_t bits_ = 0;
};

/// Per-lane register: one T per lane. Plain aggregate; arithmetic is done
/// through Wave methods (which charge cycle costs) or explicit lane loops.
template <class T>
struct Vec {
  std::array<T, kMaxLanes> lane{};

  constexpr T& operator[](unsigned i) { return lane[i]; }
  constexpr const T& operator[](unsigned i) const { return lane[i]; }

  /// Broadcast constructor helper.
  static constexpr Vec splat(T v) {
    Vec out;
    out.lane.fill(v);
    return out;
  }
};

/// Build a mask from a per-lane predicate over active lanes.
template <class T, class Pred>
constexpr Mask where(const Vec<T>& v, Mask active, Pred&& pred) {
  Mask out;
  for (unsigned i = 0; i < kMaxLanes; ++i) {
    if (active.test(i) && pred(v[i])) out.set(i);
  }
  return out;
}

/// Build a mask from a two-operand per-lane predicate.
template <class A, class B, class Pred>
constexpr Mask where2(const Vec<A>& a, const Vec<B>& b, Mask active, Pred&& pred) {
  Mask out;
  for (unsigned i = 0; i < kMaxLanes; ++i) {
    if (active.test(i) && pred(a[i], b[i])) out.set(i);
  }
  return out;
}

}  // namespace gcg::simgpu
