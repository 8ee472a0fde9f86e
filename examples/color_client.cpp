// Command-line client for color_server. One verb per invocation:
//
//   color_client submit <graph-spec> [--socket S]
//                [--algorithm steal] [--priority random] [--seed 1]
//                [--deadline-ms 0] [--wait]
//                [--count N] [--concurrency C]     (mini load generator)
//   color_client status <id> | result <id> | cancel <id>
//   color_client stats | ping | shutdown
//
// <graph-spec> is a file path (.mtx/.col/.el/.gbin) or a generator spec
// like gen:rmat-like?scale=0.25&seed=1 (see docs/SERVICE.md).
#include <algorithm>
#include <atomic>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "util/cli.hpp"

namespace {

constexpr const char* kDefaultSocket = "/tmp/gcg_color.sock";

int usage() {
  std::cerr
      << "usage: color_client <verb> [args] [--socket PATH]\n"
         "  submit <graph-spec> [--algorithm NAME]\n"
         "         [--priority random|degree-biased|natural] [--seed N]\n"
         "         [--order NAME] [--deadline-ms MS]\n"
         "         [--keep-colors]\n"
         "         [--wait] [--count N] [--concurrency C]\n"
         "  status <id> | result <id> | cancel <id>\n"
         "  stats | ping | shutdown\n";
  return 2;
}

gcg::svc::JobSpec spec_from_cli(const gcg::Cli& cli,
                                const std::string& graph) {
  gcg::svc::JobSpec spec;
  spec.graph = graph;
  spec.algorithm = cli.get("algorithm", spec.algorithm);
  spec.priority = cli.get("priority", "random");
  spec.seed = std::stoull(cli.get("seed", "1"));  // full u64 range
  spec.order = cli.get("order", "");  // the service validates the name
  spec.deadline_ms = cli.get_double("deadline-ms", 0.0);
  spec.keep_colors = cli.get_bool("keep-colors");
  return spec;
}

/// Submit `count` copies across `concurrency` connections; print a recap.
int submit_many(const std::string& socket, const gcg::svc::JobSpec& spec,
                bool wait, int count, int concurrency) {
  using namespace gcg::svc;
  std::mutex mu;
  std::uint64_t ok = 0, rejected = 0, failed = 0;
  std::vector<std::thread> team;
  std::atomic<int> remaining{count};
  for (int c = 0; c < concurrency; ++c) {
    team.emplace_back([&] {
      try {
        Client client(socket);
        while (remaining.fetch_sub(1) > 0) {
          const Json reply = client.submit(spec, wait);
          std::lock_guard<std::mutex> lock(mu);
          if (reply.get_bool("ok", false)) {
            ++ok;
          } else if (reply.get_string("error", "") == kErrQueueFull) {
            ++rejected;
          } else {
            ++failed;
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        ++failed;
        std::cerr << "worker error: " << e.what() << '\n';
      }
    });
  }
  for (std::thread& t : team) t.join();
  std::cout << "submitted " << count << ": ok=" << ok
            << " queue_full=" << rejected << " failed=" << failed << '\n';
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcg;
  const Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string verb = cli.positional()[0];
  const std::string socket = cli.get("socket", kDefaultSocket);

  try {
    if (verb == "submit") {
      if (cli.positional().size() < 2) return usage();
      const svc::JobSpec spec = spec_from_cli(cli, cli.positional()[1]);
      const bool wait = cli.get_bool("wait");
      const int count = static_cast<int>(cli.get_int("count", 1));
      const int concurrency =
          static_cast<int>(cli.get_int("concurrency", 1));
      if (count > 1 || concurrency > 1) {
        return submit_many(socket, spec, wait, count,
                           std::max(1, concurrency));
      }
      svc::Client client(socket);
      const svc::Json reply = client.submit(spec, wait);
      std::cout << reply.dump() << '\n';
      return reply.get_bool("ok", false) ? 0 : 1;
    }

    svc::Client client(socket);
    svc::Json reply;
    if (verb == "status" || verb == "result" || verb == "cancel") {
      if (cli.positional().size() < 2) return usage();
      const std::uint64_t id =
          static_cast<std::uint64_t>(std::stoull(cli.positional()[1]));
      if (verb == "status") reply = client.status(id);
      else if (verb == "result") reply = client.result(id);
      else reply = client.cancel(id);
    } else if (verb == "stats") {
      reply = client.stats();
    } else if (verb == "ping") {
      reply = svc::Json{svc::JsonObject{}};
      reply["ok"] = svc::Json(client.ping());
    } else if (verb == "shutdown") {
      reply = svc::Json{svc::JsonObject{}};
      reply["ok"] = svc::Json(client.shutdown_server());
    } else {
      return usage();
    }
    std::cout << reply.dump() << '\n';
    return reply.get_bool("ok", false) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
