#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/narrow.hpp"

namespace gcg {

Histogram Histogram::log2(unsigned max_log2) {
  Histogram h;
  h.counts_.assign(std::size_t{max_log2} + 2, 0);  // +overflow
  return h;
}

std::size_t Histogram::index_of(double x) const {
  if (x < 1.0) return 0;
  // Clamp in the float domain: casting an out-of-range double (inf,
  // or beyond the last bin) would be UB before min() ever ran.
  const double lg = std::floor(std::log2(x));
  if (!(lg < static_cast<double>(counts_.size()))) return counts_.size() - 1;
  return std::min(narrow<std::size_t>(lg) + 1, counts_.size() - 1);
}

void Histogram::add(double x, std::uint64_t weight) {
  counts_[index_of(x)] += weight;
  total_ += weight;
}

std::string Histogram::bin_label(std::size_t bin) const {
  std::ostringstream os;
  if (bin == 0) {
    os << "[0,1)";
  } else if (bin == counts_.size() - 1) {
    os << "[" << (1ULL << (bin - 1)) << ",inf)";
  } else {
    os << "[" << (1ULL << (bin - 1)) << "," << (1ULL << bin) << ")";
  }
  return os.str();
}

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const auto bar =
        peak ? narrow<std::size_t>(static_cast<double>(counts_[b]) /
                                   static_cast<double>(peak) *
                                   static_cast<double>(width))
             : 0;
    os << "  " << bin_label(b);
    for (std::size_t pad = bin_label(b).size(); pad < 16; ++pad) os << ' ';
    os << std::string(std::max<std::size_t>(bar, 1), '#') << ' ' << counts_[b]
       << '\n';
  }
  return os.str();
}

}  // namespace gcg
