#include "par/detail/frontier.hpp"
#include "util/narrow.hpp"

#include <algorithm>
#include <cmath>

namespace gcg::par::detail {

namespace {
// Auto hub threshold floor: a cooperative pass costs a pool barrier per
// hub per phase, so only vertices carrying thousands of edges repay it.
constexpr double kMinAutoHubDegree = 2048.0;
}  // namespace

SchedulePlan make_plan(const Csr& g, unsigned workers) {
  SchedulePlan plan;
  const vid_t n = g.num_vertices();
  if (n == 0) return plan;
  // Dense (bitmap) frontier while at least a quarter of the graph is
  // active: scanning everyone costs at most 4x the useful work, and in
  // exchange there is no shared append cursor and the partitioner reads
  // the CSR row offsets as a free degree prefix.
  plan.dense_min = std::max<std::uint32_t>(1, n / 4);
  plan.hub_threshold =
      narrow<vid_t>(std::max(kMinAutoHubDegree, 16.0 * g.avg_degree()));
  plan.hubs = workers > 1 && g.max_degree() > plan.hub_threshold;
  return plan;
}

}  // namespace gcg::par::detail
