// Command-line coloring tool: load a graph file (.mtx/.col/.el/.gbin)
// or a generator spec (gen:kron-like?scale=0.5&seed=1), color it with a
// chosen algorithm, verify, and optionally write the color assignment.
// Runs on the simulated GPU (default) or the native multicore backend.
//
// Exit codes (stable, for scripts/CI): 0 = valid coloring produced,
// 1 = error (unreadable graph, bad flag value, ...), 2 = usage (no graph,
// an unknown flag or backend),
// 3 = the produced coloring FAILED validity verification.
//
//   ./examples/color_tool graph.mtx [--backend sim|par]
//                                   [--algorithm hybrid+steal]
//                                   [--threads N]   (par backend)
//                                   [--order natural] [--out colors.txt]
//                                   [--seed 1] [--stats]
//                                   [--store]
//
// --store packs the input to .gbin v2 on first use (reusing an existing
// pack) and serves it as a zero-copy mmap view — repeat invocations skip
// the parse entirely.
#include <fstream>
#include <iostream>

#include "coloring/quality.hpp"
#include "coloring/runner.hpp"
#include "check/check.hpp"
#include "graph/io/io.hpp"
#include "graph/reorder.hpp"
#include "graph/stats.hpp"
#include "par/runner.hpp"
#include "store/mapped_graph.hpp"
#include "store/writer.hpp"
#include "svc/graph_registry.hpp"
#include "util/cli.hpp"

namespace {

void write_colors(const gcg::Cli& cli, std::span<const gcg::color_t> colors) {
  const std::string out = cli.get("out", "");
  if (out.empty()) return;
  std::ofstream os(out);
  for (std::size_t v = 0; v < colors.size(); ++v) {
    os << v << ' ' << colors[v] << '\n';
  }
  std::cout << "wrote " << out << '\n';
}

// Distinct exit code for "ran fine but the coloring is wrong", so CI can
// tell an algorithmic regression from an environment problem.
constexpr int kExitInvalidColoring = 3;

int run_sim(const gcg::Cli& cli, const gcg::Csr& g) {
  using namespace gcg;
  const Algorithm algo =
      algorithm_from_name(cli.get("algorithm", "hybrid+steal"));
  ColoringOptions opts;
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.collect_launches = false;

  const ColoringRun run = run_coloring(simgpu::tahiti(), g, algo, opts);
  if (const auto violation = check::verify_coloring(g, run.colors)) {
    std::cerr << "INVALID COLORING: " << violation->to_string() << '\n';
    return kExitInvalidColoring;
  }

  const QualityReport q = analyze_quality(g, run.colors);
  std::cout << "backend:     sim\n"
            << "algorithm:   " << algorithm_name(algo) << '\n'
            << "colors:      " << run.num_colors << '\n'
            << "iterations:  " << run.iterations << '\n'
            << "sim cycles:  " << run.total_cycles << '\n'
            << "model time:  " << run.total_ms << " ms\n"
            << "parallelism: " << q.mean_parallelism
            << " vertices/color class (mean)\n";
  write_colors(cli, run.colors);
  return 0;
}

int run_par(const gcg::Cli& cli, const gcg::Csr& g) {
  using namespace gcg;
  const par::ParAlgorithm algo =
      par::par_algorithm_from_name(cli.get("algorithm", "steal"));
  par::ParOptions opts;
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.threads = static_cast<unsigned>(cli.get_int("threads", 0));
  // The runner owns the reorder pipeline (color relabeled, unmap back),
  // so run.colors below are already in this graph's vertex ids.
  opts.order = order_from_name(cli.get("order", "natural"));

  const par::ParRun run = par::run_par_coloring(g, algo, opts);
  if (const auto violation = check::verify_coloring(g, run.colors)) {
    std::cerr << "INVALID COLORING: " << violation->to_string() << '\n';
    return kExitInvalidColoring;
  }

  const QualityReport q = analyze_quality(g, run.colors);
  std::cout << "backend:     par (" << run.threads << " threads)\n"
            << "algorithm:   " << par_algorithm_name(algo) << '\n'
            << "colors:      " << run.num_colors << '\n'
            << "iterations:  " << run.iterations << '\n'
            << "wall time:   " << run.wall_ms << " ms\n";
  if (run.order != Order::kNatural) {
    std::cout << "order:       " << order_name(run.order) << " ("
              << run.reorder_ms << " ms reorder)\n";
  }
  std::cout
            << "imbalance:   " << run.imbalance.cu_max_over_mean
            << " max/mean worker busy\n"
            << "parallelism: " << q.mean_parallelism
            << " vertices/color class (mean)\n";
  if (run.steal.steal_attempts > 0) {
    std::cout << "steals:      " << run.steal.steal_hits << '/'
              << run.steal.steal_attempts << " hits ("
              << run.steal.chunks_stolen << " chunks)\n";
  }
  write_colors(cli, run.colors);
  return 0;
}

// Pack-on-first-load: convert the input to .gbin v2 next to it (reusing
// an existing pack), then mmap. The returned Csr is a zero-copy view
// whose keepalive pins the mapping, so it outlives the local handle.
gcg::Csr open_via_store(const std::string& input) {
  using namespace gcg;
  std::string target = input;
  if (!store::is_gbin_v2_file(input)) {
    const store::PackResult pr =
        store::pack(input, store::default_pack_target(input),
                    /*reuse_existing=*/true);
    target = pr.output;
    std::cout << "store:       " << (pr.reused ? "reusing " : "packed ")
              << pr.output << " (" << pr.output_bytes << " bytes)\n";
  }
  const auto mg = store::MappedGraph::open(target);
  std::cout << "store:       "
            << (mg->is_mapped() ? "mapped (zero-copy view)" : "heap fallback")
            << '\n';
  return mg->graph();  // view copy shares the mapping anchor
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg;
  const Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::cerr << "usage: color_tool <graph.{mtx,col,el,gbin} | gen:NAME> "
                 "[--backend sim|par] [--algorithm NAME] [--threads N] "
                 "[--order NAME] [--out FILE] [--seed N] [--stats] "
                 "[--store]\n";
    std::cerr << "sim algorithms:";
    for (Algorithm a : all_algorithms()) std::cerr << ' ' << algorithm_name(a);
    std::cerr << "\npar algorithms:";
    for (par::ParAlgorithm a : par::all_par_algorithms()) {
      std::cerr << ' ' << par::par_algorithm_name(a);
    }
    std::cerr << '\n';
    return 2;
  }
  // Every flag some backend reads. Marking them read leaves unused() with
  // the typos (say --algo for --algorithm), which would otherwise be
  // ignored silently.
  for (const char* name :
       {"backend", "algorithm", "threads", "order", "out", "seed", "stats",
        "store"}) {
    cli.has(name);
  }
  if (const std::vector<std::string> unknown = cli.unused();
      !unknown.empty()) {
    for (const std::string& name : unknown) {
      std::cerr << "error: unknown flag --" << name << '\n';
    }
    return 2;
  }

  try {
    const std::string& spec = cli.positional()[0];
    // gen: specs go through the service registry (same parser as the
    // server); a copy of a generated graph is owning, so the local
    // registry can die right here.
    Csr g = spec.rfind("gen:", 0) == 0 ? *svc::GraphRegistry().acquire(spec)
            : cli.get_bool("store")    ? open_via_store(spec)
                                       : load_graph(spec);
    if (const auto issue = check::validate_csr(g)) {
      std::cerr << "error: malformed graph: " << issue->to_string() << '\n';
      return 1;
    }
    const std::string backend = cli.get("backend", "sim");
    // par threads the order through ParOptions in run_par: the runner
    // colors the relabeled graph and unmaps, so g stays as loaded here.
    const Order order = order_from_name(cli.get("order", "natural"));
    if (order != Order::kNatural && backend != "par") g = reorder(g, order);

    if (cli.get_bool("stats")) {
      std::cout << describe(compute_stats(g)) << '\n';
      std::cout << degree_histogram(g).render();
    }

    if (backend == "sim") return run_sim(cli, g);
    if (backend == "par") return run_par(cli, g);
    std::cerr << "error: unknown backend '" << backend << "' (sim|par)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
