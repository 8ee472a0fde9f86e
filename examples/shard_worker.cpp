// Shard worker daemon: serves shard_color / shard_repair requests (plus
// ping/shutdown) over a line-JSON Unix socket. Normally spawned — one
// per fleet slot — by shard::Coordinator, which passes --socket and
// --threads; it also runs standalone for protocol debugging:
//
//   ./examples/shard_worker --socket /tmp/gcg_shard.sock
//                           [--threads N] [--repair-rounds 4096]
//                           [--cache-graphs 4] [--cache-mb 1024]
//                           [--no-mmap]
//
// Exits 0 on shutdown verb or SIGINT/SIGTERM, 2 on usage error (no
// --socket, or a flag the worker does not read).
#include <atomic>
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "shard/worker.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg;
  const Cli cli(argc, argv);
  const std::string socket = cli.get("socket", "");
  if (socket.empty()) {
    std::cerr << "usage: shard_worker --socket PATH [--threads N] "
                 "[--repair-rounds N] [--cache-graphs N] [--cache-mb N] "
                 "[--no-mmap]\n";
    return 2;
  }

  shard::Worker::Options wopts;
  wopts.threads = static_cast<unsigned>(cli.get_int("threads", 0));
  wopts.repair_max_rounds =
      static_cast<unsigned>(cli.get_int("repair-rounds", 4096));
  wopts.registry.max_entries =
      static_cast<std::size_t>(cli.get_int("cache-graphs", 4));
  wopts.registry.max_bytes =
      static_cast<std::size_t>(cli.get_int("cache-mb", 1024)) << 20;
  wopts.registry.mmap_store = !cli.get_bool("no-mmap");
  if (const std::vector<std::string> unknown = cli.unused();
      !unknown.empty()) {
    for (const std::string& name : unknown) {
      std::cerr << "shard_worker: unknown flag --" << name << '\n';
    }
    return 2;
  }

  try {
    shard::WorkerServer ws(socket, wopts);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // Poll the signal flag between timed waits — a std::signal handler
    // can only set a flag, not notify the server's condition variable.
    while (!g_interrupted.load() && !ws.wait_for(200.0)) {
    }
    ws.stop();
  } catch (const std::exception& e) {
    std::cerr << "shard_worker: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
