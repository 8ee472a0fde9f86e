// Store cold-start / steady-state benchmark: how long until a graph is
// servable from each on-disk representation, and what (if anything) the
// mmap view costs at coloring time. Prints two tables (ASCII + CSV):
// load time per path, and the steady-state coloring comparison.
//
// Load paths compared, same graph each time:
//   parse_mtx            text parse + build            O(file) CPU-bound
//   v2_heap              .gbin v2 heap read + verify   O(file) copy
//   v2_mmap_first_open   mmap + header validate        O(1) in file size
//   v2_mmap_second_open  same file again (page cache)  ~free
//   v2_mmap_validate     check::validate_csr on a fresh open: the pass
//                        every registry load runs, which reads (and so
//                        faults in) every page of both sections
//
// Steady state: one JPL run (deterministic, so heap and mapped do the
// same work) on the heap copy vs the mapped view.
//
//   bench_store_load [--scale 0.4] [--seed 1] [--graph kron-like]
//                    [--threads 2] [--repeats 3]
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "check/csr.hpp"
#include "graph/io/io.hpp"
#include "par/runner.hpp"
#include "store/mapped_graph.hpp"
#include "store/writer.hpp"

namespace {

using namespace gcg;

std::int64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::int64_t>(in.tellg()) : 0;
}

double color_ms(const Csr& g, unsigned threads, std::uint64_t seed) {
  par::ParOptions opts;
  opts.threads = threads;
  opts.seed = seed;
  return par::run_par_coloring(g, par::ParAlgorithm::kJpl, opts).wall_ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg::bench;
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.4);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string name = cli.get("graph", "kron-like");
  const unsigned threads = static_cast<unsigned>(cli.get_int("threads", 2));
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));

  const Csr g =
      make_suite_graph(name, {.scale = scale, .seed = seed}).graph;
  std::cerr << "bench_store_load: " << name << " scale=" << scale << " ("
            << g.num_vertices() << " vertices, " << g.num_arcs()
            << " arcs)\n";

  const std::string dir = "bench_store_tmp";
  const std::string mtx = dir + "/" + name + ".mtx";
  const std::string v2 = dir + "/" + name + ".gbin";
  std::filesystem::create_directories(dir);
  save_graph(mtx, g);
  store::write_gbin_v2(v2, g);

  const double parse_ms =
      best_time_ms(repeats, [&] { (void)load_graph(mtx); });
  const double v2_heap_ms =
      best_time_ms(repeats, [&] { (void)load_graph(v2); });

  // First open still hits a warm page cache in-process; what it shows is
  // that the open itself does no O(file) work. The second open measures
  // the registry's steady-state reopen cost.
  const double mmap_first_ms =
      time_ms([&] { (void)store::MappedGraph::open(v2); });
  const double mmap_second_ms =
      best_time_ms(repeats, [&] { (void)store::MappedGraph::open(v2); });

  const auto mg = store::MappedGraph::open(v2);
  const double validate_ms =
      time_ms([&] { (void)check::validate_csr(mg->graph()); });
  const double residency = mg->residency().ratio();

  const double heap_color_ms = [&] {
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const double ms = color_ms(g, threads, seed);
      if (r == 0 || ms < best) best = ms;
    }
    return best;
  }();
  const double mapped_color_ms = [&] {
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      const double ms = color_ms(mg->graph(), threads, seed);
      if (r == 0 || ms < best) best = ms;
    }
    return best;
  }();

  std::cout << "# experiment: store_load\n";
  Table load({"path", "ms", "file_bytes"});
  load.precision(4).title("store load: " + name + ", " +
                          std::to_string(g.num_vertices()) + " vertices, " +
                          std::to_string(g.num_arcs()) + " arcs");
  load.add_row({"parse_mtx", parse_ms, file_bytes(mtx)});
  load.add_row({"v2_heap", v2_heap_ms, file_bytes(v2)});
  load.add_row({"v2_mmap_first_open", mmap_first_ms, file_bytes(v2)});
  load.add_row({"v2_mmap_second_open", mmap_second_ms, file_bytes(v2)});
  load.add_row({"v2_mmap_validate", validate_ms, file_bytes(v2)});
  load.print(std::cout);

  Table steady({"algorithm", "threads", "repeats", "heap_color_ms",
                "mapped_color_ms", "mapped", "residency"});
  steady.title("steady state: heap copy vs mapped view");
  steady.add_row({"jpl", static_cast<std::int64_t>(threads),
                  static_cast<std::int64_t>(repeats), heap_color_ms,
                  mapped_color_ms, mg->is_mapped() ? "yes" : "no", residency});
  steady.print(std::cout);

  std::filesystem::remove_all(dir);
  return 0;
}
