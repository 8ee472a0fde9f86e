// Histograms for degree distributions, with an ASCII renderer for bench
// output. Power-of-two bins: the natural view for power-law degree
// distributions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gcg {

class Histogram {
 public:
  /// Power-of-two bins: [0,1), [1,2), [2,4), [4,8), ... up to `max_log2`.
  static Histogram log2(unsigned max_log2);

  void add(double x, std::uint64_t weight = 1);

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t total() const { return total_; }
  /// Human-readable label for a bin, e.g. "[4,8)".
  std::string bin_label(std::size_t bin) const;

  /// Multi-line ASCII bar chart (one row per non-empty bin).
  std::string render(std::size_t width = 50) const;

 private:
  Histogram() = default;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::size_t index_of(double x) const;
};

}  // namespace gcg
