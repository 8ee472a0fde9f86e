#include "graph/reorder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/builder.hpp"
#include "util/expect.hpp"
#include "util/narrow.hpp"
#include "util/rng.hpp"

namespace gcg {

const char* order_name(Order o) {
  switch (o) {
    case Order::kNatural: return "natural";
    case Order::kRandom: return "random";
    case Order::kDegreeDescending: return "degree-desc";
    case Order::kDegreeAscending: return "degree-asc";
    case Order::kBfs: return "bfs";
    case Order::kRcm: return "rcm";
  }
  return "?";
}

Order order_from_name(const std::string& name) {
  for (Order o : {Order::kNatural, Order::kRandom, Order::kDegreeDescending,
                  Order::kDegreeAscending, Order::kBfs, Order::kRcm}) {
    if (name == order_name(o)) return o;
  }
  throw std::invalid_argument("unknown order: " + name);
}

namespace {

/// BFS visit order from each unvisited root (ascending id), optionally
/// sorting each frontier expansion by degree (for RCM).
std::vector<vid_t> bfs_visit_order(const Csr& g, bool sort_by_degree) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> visit;  // visit[k] = old id visited k-th
  visit.reserve(n);
  std::vector<bool> seen(n, false);
  std::vector<vid_t> scratch;
  for (vid_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    visit.push_back(root);
    // classic array-as-queue BFS; `head` chases the growing visit list
    for (std::size_t head = visit.size() - 1; head < visit.size(); ++head) {
      const vid_t u = visit[head];
      scratch.clear();
      for (vid_t v : g.neighbors(u)) {
        if (!seen[v]) {
          seen[v] = true;
          scratch.push_back(v);
        }
      }
      if (sort_by_degree) {
        std::sort(scratch.begin(), scratch.end(), [&](vid_t a, vid_t b) {
          return g.degree(a) < g.degree(b) || (g.degree(a) == g.degree(b) && a < b);
        });
      }
      visit.insert(visit.end(), scratch.begin(), scratch.end());
    }
  }
  return visit;
}

std::vector<vid_t> visit_to_perm(const std::vector<vid_t>& visit) {
  std::vector<vid_t> perm(visit.size());
  for (vid_t k = 0; k < visit.size(); ++k) perm[visit[k]] = k;
  return perm;
}

}  // namespace

std::vector<vid_t> make_order(const Csr& g, Order o, std::uint64_t seed) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> perm(n);
  std::iota(perm.begin(), perm.end(), vid_t{0});

  switch (o) {
    case Order::kNatural:
      return perm;
    case Order::kRandom: {
      // Fisher–Yates over the *new ids*: shuffle identity then invert is
      // equivalent to shuffling directly since uniform.
      Xoshiro256ss rng(seed);
      for (vid_t i = n; i > 1; --i) {
        const auto j = narrow<vid_t>(rng.bounded(i));
        std::swap(perm[i - 1], perm[j]);
      }
      return perm;
    }
    case Order::kDegreeDescending:
    case Order::kDegreeAscending: {
      // Stable counting sort by degree, O(n + max_degree): start[d] is the
      // first position of degree-d vertices, which then take consecutive
      // positions in ascending id, as a stable sort would place them.
      std::vector<vid_t> start(std::size_t{g.max_degree()} + 1, 0);
      for (vid_t v = 0; v < n; ++v) ++start[g.degree(v)];
      const bool desc = (o == Order::kDegreeDescending);
      vid_t next = 0;
      for (std::size_t i = 0; i < start.size(); ++i) {
        vid_t& slot = start[desc ? start.size() - 1 - i : i];
        const vid_t count = slot;
        slot = next;
        next += count;
      }
      for (vid_t v = 0; v < n; ++v) perm[v] = start[g.degree(v)]++;
      return perm;
    }
    case Order::kBfs:
      return visit_to_perm(bfs_visit_order(g, /*sort_by_degree=*/false));
    case Order::kRcm: {
      auto visit = bfs_visit_order(g, /*sort_by_degree=*/true);
      std::reverse(visit.begin(), visit.end());
      return visit_to_perm(visit);
    }
  }
  GCG_ASSERT(false && "unreachable");
  return perm;
}

bool is_permutation(const std::vector<vid_t>& perm, vid_t n) {
  if (perm.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (vid_t p : perm) {
    if (p >= n || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

Csr apply_order(const Csr& g, const std::vector<vid_t>& perm) {
  const vid_t n = g.num_vertices();
  GCG_EXPECT(is_permutation(perm, n));
  // Build new CSR directly: degree of new id perm[v] = degree of v.
  std::vector<eid_t> rows(std::size_t{n} + 1, 0);
  for (vid_t v = 0; v < n; ++v) rows[perm[v] + 1] = g.degree(v);
  for (std::size_t i = 1; i < rows.size(); ++i) rows[i] += rows[i - 1];
  std::vector<vid_t> cols(g.num_arcs());
  std::vector<vid_t> scratch;
  for (vid_t v = 0; v < n; ++v) {
    scratch.clear();
    for (vid_t u : g.neighbors(v)) scratch.push_back(perm[u]);
    std::sort(scratch.begin(), scratch.end());
    std::copy(scratch.begin(), scratch.end(),
              cols.begin() + to_signed(rows[perm[v]]));
  }
  return Csr(std::move(rows), std::move(cols));
}

Csr reorder(const Csr& g, Order o, std::uint64_t seed) {
  return apply_order(g, make_order(g, o, seed));
}

}  // namespace gcg
