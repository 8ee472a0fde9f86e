#include "coloring/priorities.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace gcg {

const char* priority_mode_name(PriorityMode m) {
  switch (m) {
    case PriorityMode::kRandom: return "random";
    case PriorityMode::kDegreeBiased: return "degree-biased";
    case PriorityMode::kNaturalOrder: return "natural";
  }
  return "?";
}

PriorityMode priority_mode_from_name(const std::string& name) {
  for (PriorityMode m : {PriorityMode::kRandom, PriorityMode::kDegreeBiased,
                         PriorityMode::kNaturalOrder}) {
    if (name == priority_mode_name(m)) return m;
  }
  throw std::invalid_argument("unknown priority mode: " + name +
                              " (random|degree-biased|natural)");
}

std::vector<std::uint32_t> make_priorities(const Csr& g, PriorityMode mode,
                                           std::uint64_t seed,
                                           std::span<const vid_t> rank) {
  const vid_t n = g.num_vertices();
  GCG_EXPECT(rank.empty() || rank.size() == n);
  const auto id = [&](vid_t v) { return rank.empty() ? v : rank[v]; };
  std::vector<std::uint32_t> prio(n);
  const CounterHash hash(seed);
  switch (mode) {
    case PriorityMode::kRandom:
      for (vid_t v = 0; v < n; ++v) prio[v] = hash.u32(id(v));
      break;
    case PriorityMode::kDegreeBiased:
      // Degree in the top bits, hash noise below: hubs become local maxima
      // early, mimicking largest-degree-first.
      for (vid_t v = 0; v < n; ++v) {
        const std::uint32_t d = std::min<vid_t>(g.degree(v), 0xFFFu);
        prio[v] = (d << 20) | (hash.u32(id(v)) & 0xFFFFFu);
      }
      break;
    case PriorityMode::kNaturalOrder:
      for (vid_t v = 0; v < n; ++v) {
        prio[v] = std::numeric_limits<std::uint32_t>::max() - id(v);
      }
      break;
  }
  return prio;
}

}  // namespace gcg
