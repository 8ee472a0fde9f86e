// Native-backend scaling: every par algorithm on every suite graph at
// thread counts 1..hardware_concurrency (powers of two plus the max),
// reporting wall time, speedup over the 1-thread par run, busy-time
// imbalance, steal traffic, and color-count parity against seq_greedy.
//
//   bench_par_scaling [--scale S] [--seed N] [--graphs a,b,c]
//                     [--threads 1,2,4,8] [--repeats 3]
//                     [--priority natural|random|degree-biased]
//
// Default priorities are natural-order: Jones–Plassmann selection then
// reproduces sequential greedy exactly, so the colors/seq_colors parity
// columns compare like with like. --priority random exercises the
// paper's hashed priorities instead (shorter dependency chains, more
// colors on structured graphs).
#include <algorithm>
#include <map>
#include <sstream>

#include "bench_common.hpp"
#include "coloring/seq_greedy.hpp"
#include "check/coloring.hpp"
#include "par/pool.hpp"
#include "par/runner.hpp"
#include "util/expect.hpp"

namespace {

std::vector<unsigned> thread_sweep(const gcg::Cli& cli) {
  const std::string sel = cli.get("threads", "");
  std::vector<unsigned> out;
  if (!sel.empty()) {
    std::istringstream is(sel);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (!tok.empty()) out.push_back(static_cast<unsigned>(std::stoul(tok)));
    }
    return out;
  }
  const unsigned hw = gcg::par::ThreadPool::default_threads();
  for (unsigned t = 1; t < hw; t <<= 1) out.push_back(t);
  out.push_back(hw);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg;
  using namespace gcg::bench;
  const BenchEnv env = parse_env(argc, argv, "par_scaling",
                                 {"threads", "repeats", "priority"});
  const Cli cli(argc, argv);
  const auto threads = thread_sweep(cli);
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  const std::string prio_name = cli.get("priority", "natural");
  bool prio_known = false;
  PriorityMode priority = PriorityMode::kNaturalOrder;
  for (PriorityMode m : {PriorityMode::kRandom, PriorityMode::kDegreeBiased,
                         PriorityMode::kNaturalOrder}) {
    if (prio_name == priority_mode_name(m)) {
      priority = m;
      prio_known = true;
    }
  }
  if (!prio_known) {
    std::cerr << "error: unknown --priority '" << prio_name
              << "' (natural|random|degree-biased)\n";
    return 2;
  }
  std::cout << "# hardware threads: " << par::ThreadPool::default_threads()
            << "\n# priority: " << priority_mode_name(priority) << "\n";

  Table table({"graph", "algorithm", "threads", "wall_ms", "speedup",
               "worker_imbalance", "steal_hits", "colors", "seq_colors"});
  table.title("Native multicore scaling (speedup vs 1-thread par run)");

  for (const SuiteEntry& entry : load_graphs(env)) {
    const SeqColoring seq = greedy_color(entry.graph);
    for (par::ParAlgorithm algo : par::all_par_algorithms()) {
      double base_ms = 0.0;
      for (unsigned t : threads) {
        par::ThreadPool pool(t);
        par::ParOptions opts;
        opts.seed = env.seed;
        opts.priority = priority;

        par::ParRun run;
        double best = 0.0;
        for (int r = 0; r < repeats; ++r) {
          WallTimer timer;
          par::ParRun attempt =
              par::run_par_coloring(pool, entry.graph, algo, opts);
          const double ms = timer.elapsed_ms();
          if (r == 0 || ms < best) {
            best = ms;
            run = std::move(attempt);
          }
        }
        GCG_EXPECT(check::is_valid_coloring(entry.graph, run.colors));
        if (t == threads.front()) base_ms = best;

        table.add_row({entry.name, par_algorithm_name(algo),
                       static_cast<std::int64_t>(t), best,
                       speedup(base_ms, best),
                       run.imbalance.cu_max_over_mean,
                       static_cast<std::int64_t>(run.steal.steal_hits),
                       static_cast<std::int64_t>(run.num_colors),
                       static_cast<std::int64_t>(seq.num_colors)});
      }
    }
  }
  table.print(std::cout);
  return 0;
}
