// Sharded-coloring benchmark: how the boundary fraction, conflict-round
// count, and repair traffic scale with the number of shards, on a
// skewed (rmat/kron-like) versus a uniform (er-like) graph. This is the
// load-imbalance story of the paper replayed at the process level: the
// same hub vertices that imbalance a GPU workgroup also fatten the cut
// between shards.
//
//   bench_shard [--scale 0.3] [--seed 1] [--graphs kron-like,er-like]
//               [--shards 1,2,4,8] [--workers 2] [--rounds 16]
//
// The fleet runs in-process (WorkerServer threads on real sockets):
// bench binaries do not sit next to shard_worker, and the protocol cost
// is identical either way — only the address space differs.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "check/check.hpp"
#include "par/runner.hpp"
#include "shard/coordinator.hpp"
#include "svc/graph_registry.hpp"

namespace {

using namespace gcg;

std::vector<unsigned> parse_shard_list(const std::string& csv) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    auto comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > pos) {
      out.push_back(
          static_cast<unsigned>(std::stoul(csv.substr(pos, comma - pos))));
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg::bench;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string graphs_csv = cli.get("graphs", "kron-like,er-like");
  const std::vector<unsigned> shard_counts =
      parse_shard_list(cli.get("shards", "1,2,4,8"));
  const unsigned workers = static_cast<unsigned>(cli.get_int("workers", 2));
  const unsigned rounds = static_cast<unsigned>(cli.get_int("rounds", 16));

  shard::CoordinatorOptions copts;
  copts.workers = workers;
  copts.in_process = true;
  copts.max_rounds = rounds;
  shard::Coordinator coord(copts);

  svc::GraphRegistry registry;
  Table t({"graph", "shards", "boundary%", "cut arcs", "rounds",
           "recolored", "colors", "par colors", "wall ms", "par ms"});
  t.title("sharded coloring: shards x boundary fraction sweep");

  std::size_t pos = 0;
  while (pos <= graphs_csv.size()) {
    auto comma = graphs_csv.find(',', pos);
    if (comma == std::string::npos) comma = graphs_csv.size();
    const std::string name = graphs_csv.substr(pos, comma - pos);
    pos = comma + 1;
    if (name.empty()) continue;

    std::ostringstream spec_os;
    spec_os << "gen:" << name << "?scale=" << scale << "&seed=" << seed;
    const std::string spec = spec_os.str();
    const auto g = registry.acquire(spec);
    std::cerr << "bench_shard: " << name << " (" << g->num_vertices()
              << " vertices, " << g->num_arcs() << " arcs)\n";

    // Single-process jpl baseline: same interior algorithm the shards
    // run, so the color-count delta is purely the cost of sharding.
    par::ParOptions popts;
    popts.seed = seed;
    const par::ParRun base = par::run_par_coloring(
        *g, par::ParAlgorithm::kJpl, popts);

    for (const unsigned shards : shard_counts) {
      shard::ShardJob job;
      job.graph = spec;
      job.shards = shards;
      job.seed = seed;
      shard::ShardRunStats st;
      const std::vector<color_t> colors = coord.color(*g, job, &st);
      if (check::verify_coloring(*g, colors)) {
        std::cerr << "bench_shard: INVALID coloring for " << name << " x"
                  << shards << '\n';
        return 1;
      }

      t.add_row({name, static_cast<std::int64_t>(st.shards),
                 100.0 * st.boundary_fraction,
                 static_cast<std::int64_t>(st.cut_arcs),
                 static_cast<std::int64_t>(st.conflict_rounds),
                 static_cast<std::int64_t>(st.recolored +
                                           st.fallback_recolored),
                 static_cast<std::int64_t>(st.num_colors),
                 static_cast<std::int64_t>(base.num_colors), st.wall_ms,
                 base.wall_ms});
    }
  }

  t.print(std::cout);
  return 0;
}
