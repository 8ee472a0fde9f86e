// Coloring-as-a-service daemon: serves line-delimited JSON coloring
// requests over a Unix-domain socket (protocol in docs/SERVICE.md),
// dispatching onto the native par backend through the graph registry and
// the bounded job queue. Runs until a client sends {"op":"shutdown"} or
// the process receives SIGINT/SIGTERM, then prints a summary table.
//
//   ./examples/color_server --socket /tmp/gcg.sock
//                           [--dispatchers 2] [--threads-per-job 0]
//                           [--queue 64] [--batch 8]
//                           [--cache-graphs 16] [--cache-mb 1024]
//                           [--mapped-cache-gb 256] [--no-mmap]
//                           [--preload g1,g2,...]
//
// .gbin v2 graphs are served zero-copy off the page cache via the mmap
// store (disable with --no-mmap). A flag the server does not read is a
// usage error: it exits 2 and names the flag before binding the socket.
//
// --shard-workers is still read, but only 0 is accepted: the shard fleet
// was removed, and the e2e benchmark harness still passes
// `--shard-workers 0`. Any other value exits 2.
#include <atomic>
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "svc/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    auto comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

void print_summary(gcg::svc::Server& server) {
  using namespace gcg;
  const svc::SchedulerStats s = server.scheduler().stats();
  Table t({"metric", "value"});
  t.title("color_server session summary");
  t.add_row({"connections", static_cast<std::int64_t>(
                                server.connections_served())});
  t.add_row({"jobs submitted", static_cast<std::int64_t>(s.submitted)});
  t.add_row({"jobs completed", static_cast<std::int64_t>(s.completed)});
  t.add_row({"jobs failed", static_cast<std::int64_t>(s.failed)});
  t.add_row({"jobs cancelled", static_cast<std::int64_t>(s.cancelled)});
  t.add_row({"jobs rejected", static_cast<std::int64_t>(s.rejected)});
  t.add_row({"dispatch batches", static_cast<std::int64_t>(s.batches)});
  t.add_row({"jobs in multi-batches",
             static_cast<std::int64_t>(s.batched_jobs)});
  t.add_row({"latency p50 (ms)", s.latency_p50_ms});
  t.add_row({"latency p99 (ms)", s.latency_p99_ms});
  t.add_row({"latency max (ms)", s.latency_max_ms});
  t.add_row({"registry hits", static_cast<std::int64_t>(s.registry.hits)});
  t.add_row({"registry misses",
             static_cast<std::int64_t>(s.registry.misses)});
  t.add_row({"registry evictions",
             static_cast<std::int64_t>(s.registry.evictions)});
  t.add_row({"resident graphs",
             static_cast<std::int64_t>(s.registry.entries)});
  t.add_row({"resident MB",
             static_cast<double>(s.registry.bytes) / (1024.0 * 1024.0)});
  t.add_row({"mapped graphs",
             static_cast<std::int64_t>(s.registry.mapped_entries)});
  t.add_row({"mapped MB", static_cast<double>(s.registry.mapped_bytes) /
                              (1024.0 * 1024.0)});
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg;
  const Cli cli(argc, argv);

  svc::ServerOptions opts;
  opts.socket_path = cli.get("socket", "/tmp/gcg_color.sock");
  opts.scheduler.dispatchers =
      static_cast<unsigned>(cli.get_int("dispatchers", 2));
  opts.scheduler.threads_per_job =
      static_cast<unsigned>(cli.get_int("threads-per-job", 0));
  opts.scheduler.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue", 64));
  opts.scheduler.batch_limit =
      static_cast<std::size_t>(cli.get_int("batch", 8));
  opts.scheduler.registry.max_entries =
      static_cast<std::size_t>(cli.get_int("cache-graphs", 16));
  opts.scheduler.registry.max_bytes =
      static_cast<std::size_t>(cli.get_int("cache-mb", 1024)) << 20;
  opts.scheduler.registry.max_mapped_bytes =
      static_cast<std::size_t>(cli.get_int("mapped-cache-gb", 256)) << 30;
  opts.scheduler.registry.mmap_store = !cli.get_bool("no-mmap");

  if (cli.get_int("shard-workers", 0) != 0) {
    std::cerr << "error: --shard-workers accepts only 0: the shard fleet "
                 "was removed\n";
    return 2;
  }
  const std::vector<std::string> preload = split_csv(cli.get("preload", ""));
  if (const std::vector<std::string> unknown = cli.unused();
      !unknown.empty()) {
    for (const std::string& name : unknown) {
      std::cerr << "error: unknown flag --" << name << '\n';
    }
    return 2;
  }

  try {
    svc::Server server(opts);
    std::cout << "color_server listening on " << server.socket_path() << "\n"
              << "  dispatchers=" << opts.scheduler.dispatchers
              << " queue=" << opts.scheduler.queue_capacity
              << " batch=" << opts.scheduler.batch_limit
              << " cache-graphs=" << opts.scheduler.registry.max_entries
              << "\n";

    // Warm the registry so first requests skip the load.
    for (const std::string& spec : preload) {
      try {
        server.scheduler().registry().acquire(spec);
        std::cout << "preloaded " << spec << '\n';
      } catch (const std::exception& e) {
        std::cerr << "preload failed: " << e.what() << '\n';
      }
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // Poll the signal flag between timed waits — a std::signal handler
    // can only set a flag, not notify the server's condition variable.
    while (!g_interrupted.load() && !server.wait_for(200.0)) {
    }

    server.stop();
    print_summary(server);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
