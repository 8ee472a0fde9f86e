#include "graph/gen/random.hpp"

#include <cmath>
#include <unordered_set>
#include <vector>

#include "graph/builder.hpp"
#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg {

Csr make_erdos_renyi_gnm(vid_t n, eid_t m, std::uint64_t seed) {
  GCG_EXPECT(n >= 2);
  const auto max_edges =
      eid_t{n} * (eid_t{n} - 1) / 2;
  GCG_EXPECT(m <= max_edges);
  Xoshiro256ss rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(narrow<std::size_t>(m) * 2);
  GraphBuilder b(n);
  b.reserve(m);
  while (seen.size() < m) {
    auto u = narrow<vid_t>(rng.bounded(n));
    auto v = narrow<vid_t>(rng.bounded(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const std::uint64_t key = (std::uint64_t{u} << 32) | v;
    if (seen.insert(key).second) b.add_edge(u, v);
  }
  return b.build();
}

Csr make_random_geometric(vid_t n, double radius, std::uint64_t seed) {
  GCG_EXPECT(n >= 1);
  GCG_EXPECT(radius > 0.0 && radius <= 1.0);
  Xoshiro256ss rng(seed);
  std::vector<double> xs(n), ys(n);
  for (vid_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform();
    ys[i] = rng.uniform();
  }
  // Bucket grid with cell size = radius; only 9 neighbouring cells to scan.
  // More than n cells per axis never helps, and the clamp keeps the cell
  // count inside vid_t for arbitrarily small radii.
  const auto cells = narrow<vid_t>(std::min(
      static_cast<double>(n), std::max(1.0, std::floor(1.0 / radius))));
  const double cell_size = 1.0 / static_cast<double>(cells);
  std::vector<std::vector<vid_t>> grid(std::size_t{cells} * cells);
  auto cell_of = [&](double x) {
    return std::min<vid_t>(cells - 1, narrow<vid_t>(x / cell_size));
  };
  for (vid_t i = 0; i < n; ++i) {
    grid[std::size_t{cell_of(ys[i])} * cells + cell_of(xs[i])].push_back(i);
  }
  const double r2 = radius * radius;
  GraphBuilder b(n);
  for (vid_t i = 0; i < n; ++i) {
    const vid_t cx = cell_of(xs[i]);
    const vid_t cy = cell_of(ys[i]);
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const auto nx = std::int64_t{cx} + dx;
        const auto ny = std::int64_t{cy} + dy;
        if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
        for (vid_t j : grid[narrow<std::size_t>(ny) * cells +
                            narrow<std::size_t>(nx)]) {
          if (j <= i) continue;  // each pair once
          const double ddx = xs[i] - xs[j];
          const double ddy = ys[i] - ys[j];
          if (ddx * ddx + ddy * ddy <= r2) b.add_edge(i, j);
        }
      }
    }
  }
  return b.build();
}

}  // namespace gcg
