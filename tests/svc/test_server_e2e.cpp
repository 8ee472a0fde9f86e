// End-to-end acceptance test: a real color_server-equivalent (in-process
// svc::Server over a Unix-domain socket) serving concurrent svc::Clients.
// Covers the PR's acceptance criterion: N concurrent clients submitting
// jobs with mixed algorithms against >= 3 distinct graphs; every returned
// coloring verifies valid; the registry reports cache hits; and the
// bounded queue rejects with a distinct machine-readable error once
// offered load exceeds capacity.
#include "svc/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "check/coloring.hpp"
#include "store/writer.hpp"
#include "svc/client.hpp"
#include "svc/graph_registry.hpp"
#include "svc/protocol.hpp"

namespace gcg::svc {
namespace {

constexpr const char* kGraphs[] = {
    "gen:ecology-like?scale=0.02&seed=1",
    "gen:kron-like?scale=0.02&seed=1",
    "gen:road-like?scale=0.02&seed=1",
};
constexpr const char* kAlgorithms[] = {"speculative", "jpl", "steal"};

std::string unique_socket_path(const char* tag) {
  // Keep it short: sockaddr_un caps paths at ~107 bytes.
  return "/tmp/gcg_e2e_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

ServerOptions small_server(const std::string& socket_path) {
  ServerOptions opts;
  opts.socket_path = socket_path;
  opts.scheduler.dispatchers = 2;
  opts.scheduler.threads_per_job = 2;
  opts.scheduler.queue_capacity = 128;
  return opts;
}

std::vector<color_t> colors_from_reply(const Json& reply) {
  const Json* result = reply.find("result");
  if (!result) return {};
  const Json* colors = result->find("colors");
  if (!colors) return {};
  std::vector<color_t> out;
  out.reserve(colors->as_array().size());
  for (const Json& c : colors->as_array()) {
    out.push_back(static_cast<color_t>(c.as_int()));
  }
  return out;
}

TEST(ServerE2E, PingStatsAndSingleJob) {
  Server server(small_server(unique_socket_path("ping")));
  Client client(server.socket_path());
  EXPECT_TRUE(client.ping());

  JobSpec spec;
  spec.graph = kGraphs[0];
  const Json reply = client.submit(spec, /*wait=*/true);
  ASSERT_TRUE(reply.get_bool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.get_string("status", ""), "done");
  ASSERT_NE(reply.find("result"), nullptr);
  EXPECT_GT(reply.find("result")->get_int("num_colors", 0), 0);
  EXPECT_TRUE(reply.find("result")->get_bool("verified", false));

  const Json stats = client.stats();
  EXPECT_TRUE(stats.get_bool("ok", false));
  EXPECT_EQ(stats.get_int("completed", 0), 1);
  server.stop();
}

// The acceptance test proper.
TEST(ServerE2E, ConcurrentMixedLoadAllColoringsValid) {
  constexpr int kClients = 6;
  constexpr int kJobsPerClient = 6;
  Server server(small_server(unique_socket_path("load")));

  std::atomic<int> ok_jobs{0};
  std::atomic<int> invalid_colorings{0};
  std::atomic<int> failures{0};

  // Each client thread verifies its colorings against its own locally
  // loaded copy of the (deterministic) generated graph.
  std::vector<std::thread> team;
  for (int c = 0; c < kClients; ++c) {
    team.emplace_back([&, c] {
      GraphRegistry local;
      Client client(server.socket_path());
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobSpec spec;
        spec.graph = kGraphs[(c + j) % 3];
        spec.algorithm = kAlgorithms[j % 3];
        spec.seed = static_cast<std::uint64_t>(c * 100 + j + 1);
        spec.keep_colors = true;
        const Json reply = client.submit(spec, /*wait=*/true);
        if (!reply.get_bool("ok", false) ||
            reply.get_string("status", "") != "done") {
          failures.fetch_add(1);
          continue;
        }
        const auto colors = colors_from_reply(reply);
        const auto g = local.acquire(spec.graph);
        if (colors.size() != g->num_vertices() ||
            check::verify_coloring(*g, colors).has_value()) {
          invalid_colorings.fetch_add(1);
          continue;
        }
        ok_jobs.fetch_add(1);
      }
    });
  }
  for (auto& t : team) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(invalid_colorings.load(), 0);
  EXPECT_EQ(ok_jobs.load(), kClients * kJobsPerClient);

  Client client(server.socket_path());
  const Json stats = client.stats();
  EXPECT_EQ(stats.get_int("completed", 0), kClients * kJobsPerClient);
  const Json* registry = stats.find("registry");
  ASSERT_NE(registry, nullptr);
  // 36 jobs over 3 graphs: the registry must have served from cache.
  EXPECT_EQ(registry->get_int("misses", -1), 3);
  EXPECT_GT(registry->get_int("hits", 0) + stats.get_int("batched_jobs", 0),
            0);
  server.stop();
}

TEST(ServerE2E, BoundedQueueRejectsWithDistinctError) {
  ServerOptions opts = small_server(unique_socket_path("full"));
  opts.scheduler.dispatchers = 1;
  opts.scheduler.threads_per_job = 1;
  opts.scheduler.queue_capacity = 2;
  Server server(opts);

  Client client(server.socket_path());
  bool saw_queue_full = false;
  std::vector<std::uint64_t> accepted;
  JobSpec spec;
  spec.graph = kGraphs[1];
  for (int i = 0; i < 64 && !saw_queue_full; ++i) {
    const Json reply = client.submit(spec, /*wait=*/false);
    if (reply.get_bool("ok", false)) {
      accepted.push_back(
          static_cast<std::uint64_t>(reply.get_int("id", 0)));
    } else {
      EXPECT_EQ(reply.get_string("error", ""), kErrQueueFull);
      EXPECT_FALSE(reply.get_string("detail", "").empty());
      saw_queue_full = true;
    }
  }
  EXPECT_TRUE(saw_queue_full)
      << "a 2-deep queue on one dispatcher must overflow";
  // Accepted jobs still complete fine after the rejection.
  for (const auto id : accepted) {
    const Json reply = client.result(id);
    EXPECT_TRUE(reply.get_bool("ok", false)) << reply.dump();
    EXPECT_EQ(reply.get_string("status", ""), "done");
  }
  server.stop();
}

TEST(ServerE2E, StatusCancelAndErrorVerbs) {
  Server server(small_server(unique_socket_path("verbs")));
  Client client(server.socket_path());

  // Unknown id -> unknown_id on both status and result.
  Json reply = client.status(424242);
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_string("error", ""), kErrUnknownId);
  EXPECT_FALSE(client.cancel(424242).get_bool("cancelled", true));

  // Unknown op -> unknown_op.
  Json bad_op{JsonObject{}};
  bad_op["op"] = Json(std::string("frobnicate"));
  reply = client.request(bad_op);
  EXPECT_EQ(reply.get_string("error", ""), kErrUnknownOp);

  // Bad submit -> bad_request, connection stays usable. The overflow
  // specs exercise the parse-time hardening: an over-limit or non-finite
  // scale and a seed past uint64 must map to the same stable error as a
  // plain malformed spec, never reach a generator.
  for (const char* bad_graph : {"gen:ecology-like?bogus=1",
                                "gen:ecology-like?scale=100",
                                "gen:ecology-like?scale=inf",
                                "gen:ecology-like?scale=nan",
                                "gen:ecology-like?scale=1e300",
                                "gen:ecology-like?seed=18446744073709551616"}) {
    Json bad_submit{JsonObject{}};
    bad_submit["op"] = Json(std::string("submit"));
    bad_submit["graph"] = Json(std::string(bad_graph));
    reply = client.request(bad_submit);
    EXPECT_EQ(reply.get_string("error", ""), kErrBadRequest) << bad_graph;
    EXPECT_TRUE(client.ping()) << bad_graph;
  }
  server.stop();
}

TEST(ServerE2E, RemovedTuningKeysAreIgnoredAndSimIsUnknown) {
  Server server(small_server(unique_socket_path("knobs")));
  Client client(server.socket_path());

  // Per-job tuning keys are unknown keys now: ignored, never validated,
  // and the job runs on its dispatcher's pool at threads_per_job.
  Json knobs{JsonObject{}};
  knobs["op"] = Json(std::string("submit"));
  knobs["graph"] = Json(std::string(kGraphs[1]));
  knobs["threads"] = Json(std::int64_t{4096});
  knobs["grain"] = Json(std::int64_t{7});
  knobs["schedule"] = Json(std::string("bogus"));
  knobs["hub_threshold"] = Json(std::int64_t{1});
  knobs["wait"] = Json(true);
  Json reply = client.request(knobs);
  ASSERT_TRUE(reply.get_bool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.get_string("status", ""), "done");
  ASSERT_NE(reply.find("result"), nullptr);
  EXPECT_EQ(reply.find("result")->get_int("threads", 0),
            std::int64_t{server.scheduler().options().threads_per_job});
  EXPECT_TRUE(reply.find("result")->get_bool("verified", false));

  // The simulated backend is gone from the service: an unknown backend.
  Json sim{JsonObject{}};
  sim["op"] = Json(std::string("submit"));
  sim["graph"] = Json(std::string(kGraphs[0]));
  sim["backend"] = Json(std::string("sim"));
  reply = client.request(sim);
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_string("error", ""), kErrBadRequest);

  // The same connection still answers.
  EXPECT_TRUE(client.ping());
  server.stop();
}

TEST(ServerE2E, FullWidthSeedSurvivesTheWire) {
  // Seeds travel as two's-complement int64, so a seed of 2^63 or above
  // arrives as a negative number and must still be accepted.
  Server server(small_server(unique_socket_path("seed")));
  Client client(server.socket_path());
  JobSpec spec;
  spec.graph = kGraphs[0];
  spec.seed = UINT64_MAX;
  const Json reply = client.submit(spec, /*wait=*/true);
  ASSERT_TRUE(reply.get_bool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.get_string("status", ""), "done");
  ASSERT_NE(reply.find("result"), nullptr);
  EXPECT_TRUE(reply.find("result")->get_bool("verified", false));
  server.stop();
}

TEST(ServerE2E, InvalidGraphFailsOneJobAndTheServerKeepsAnswering) {
  // A packed graph whose arc 0->2 has no mate 2->0.
  const std::string bad =
      std::string(::testing::TempDir()) + "/gcg_e2e_asym.gbin";
  store::write_gbin_v2(bad, Csr({0, 2, 4, 5}, {1, 2, 0, 2, 1}));
  Server server(small_server(unique_socket_path("invalid")));
  Client client(server.socket_path());

  JobSpec spec;
  spec.graph = bad;
  Json reply = client.submit(spec, /*wait=*/true);
  ASSERT_TRUE(reply.get_bool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.get_string("status", ""), "failed");
  ASSERT_NE(reply.find("result"), nullptr) << reply.dump();
  const std::string error = reply.find("result")->get_string("error", "");
  EXPECT_NE(error.find("invalid_graph"), std::string::npos) << error;
  EXPECT_NE(error.find("asymmetric_edge"), std::string::npos) << error;

  // The same connection still colors a valid graph and answers.
  spec.graph = kGraphs[0];
  reply = client.submit(spec, /*wait=*/true);
  ASSERT_TRUE(reply.get_bool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.get_string("status", ""), "done");
  ASSERT_NE(reply.find("result"), nullptr);
  EXPECT_TRUE(reply.find("result")->get_bool("verified", false));
  EXPECT_TRUE(client.ping());

  const Json stats = client.stats();
  EXPECT_EQ(stats.get_int("failed", 0), 1);
  EXPECT_EQ(stats.get_int("completed", 0), 1);
  ASSERT_NE(stats.find("registry"), nullptr) << stats.dump();
  EXPECT_EQ(stats.find("registry")->get_int("load_errors", 0), 1);
  server.stop();
  std::remove(bad.c_str());
}

TEST(ServerE2E, ShardBackendIsABadRequestAndTheServerKeepsAnswering) {
  Server server(small_server(unique_socket_path("backend")));
  Client client(server.socket_path());

  // The shard fleet is gone; a client that still asks for it gets an
  // error, not a par run in its place.
  Json submit{JsonObject{}};
  submit["op"] = Json(std::string("submit"));
  submit["graph"] = Json(std::string(kGraphs[0]));
  submit["backend"] = Json(std::string("shard"));
  submit["shards"] = Json(std::int64_t{4});
  submit["wait"] = Json(true);
  Json reply = client.request(submit);
  EXPECT_FALSE(reply.get_bool("ok", true)) << reply.dump();
  EXPECT_EQ(reply.get_string("error", ""), kErrBadRequest);

  // The same connection still colors a par job and answers.
  JobSpec spec;
  spec.graph = kGraphs[0];
  spec.keep_colors = true;
  reply = client.submit(spec, /*wait=*/true);
  ASSERT_TRUE(reply.get_bool("ok", false)) << reply.dump();
  EXPECT_EQ(reply.get_string("status", ""), "done");
  ASSERT_NE(reply.find("result"), nullptr);
  EXPECT_TRUE(reply.find("result")->get_bool("verified", false));
  const Csr g = *GraphRegistry().acquire(kGraphs[0]);
  EXPECT_FALSE(
      check::verify_coloring(g, colors_from_reply(reply)).has_value());
  EXPECT_TRUE(client.ping());

  // The refused submit never reached the scheduler.
  const Json stats = client.stats();
  EXPECT_EQ(stats.get_int("submitted", 0), 1);
  EXPECT_EQ(stats.get_int("completed", 0), 1);
  server.stop();
}

TEST(ServerE2E, BadOrderIsRefusedAtSubmitAndCounted) {
  Server server(small_server(unique_socket_path("order")));
  Client client(server.socket_path());

  JobSpec spec;
  spec.graph = kGraphs[0];
  spec.order = "bogus";
  Json reply = client.submit(spec, /*wait=*/true);
  EXPECT_FALSE(reply.get_bool("ok", true)) << reply.dump();
  EXPECT_EQ(reply.get_string("error", ""), kErrBadRequest);

  spec.order = "degree-desc";
  reply = client.submit(spec, /*wait=*/true);
  EXPECT_EQ(reply.get_string("status", ""), "done") << reply.dump();

  const Json stats = client.stats();
  EXPECT_EQ(stats.get_int("submitted", 0), 1);
  EXPECT_EQ(stats.get_int("rejected", 0), 1);
  server.stop();
}

TEST(ServerE2E, MalformedLineYieldsProtocolError) {
  Server server(small_server(unique_socket_path("proto")));

  // Raw socket: svc::Client can't send malformed JSON by construction.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server.socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string line = "this is not json\n";
  ASSERT_EQ(::write(fd, line.data(), line.size()),
            static_cast<ssize_t>(line.size()));
  std::string got;
  char ch = 0;
  while (::read(fd, &ch, 1) == 1 && ch != '\n') got.push_back(ch);
  ::close(fd);

  const Json reply = Json::parse(got);
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_string("error", ""), kErrProtocol);
  server.stop();
}

TEST(ServerE2E, ClientDisconnectBeforeReplyDoesNotKillServer) {
  Server server(small_server(unique_socket_path("gone")));

  // Raw sockets that fire a blocking submit+wait and hang up immediately:
  // the server's reply lands on a closed peer. Without MSG_NOSIGNAL in
  // write_line that raises SIGPIPE and terminates this whole process.
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server.socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string line =
        "{\"op\":\"submit\",\"graph\":\"" + std::string(kGraphs[0]) +
        "\",\"wait\":true}\n";
    ASSERT_EQ(::write(fd, line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
    ::close(fd);  // gone before the reply
  }

  // The daemon must still be alive and serving.
  Client client(server.socket_path());
  EXPECT_TRUE(client.ping());
  server.stop();
}

TEST(ServerE2E, ShutdownVerbStopsServer) {
  Server server(small_server(unique_socket_path("shut")));
  {
    Client client(server.socket_path());
    EXPECT_TRUE(client.shutdown_server());
  }
  // The shutdown verb flags the server; wait() returns promptly.
  EXPECT_TRUE(server.wait_for(5000.0));
  server.stop();
  // Socket is unlinked: a fresh connect attempt fails.
  EXPECT_THROW(Client{server.socket_path()}, std::runtime_error);
}

TEST(ServerE2E, ProtocolVersionNegotiation) {
  Server server(small_server(unique_socket_path("ver")));
  Client client(server.socket_path());

  // The Client stamps protocol_version into requests that lack it; the
  // server accepts its own version (and, for compatibility, requests
  // from pre-versioning peers that omit the field entirely).
  Json ping{JsonObject{}};
  ping["op"] = Json("ping");
  EXPECT_TRUE(client.request(ping).get_bool("ok", false));

  // A future version is rejected with a stable code naming the version
  // this server speaks — that is what lets an old server and a new
  // client negotiate instead of mis-parsing each other.
  Json future{JsonObject{}};
  future["op"] = Json("ping");
  future["protocol_version"] = Json(std::int64_t{99});
  const Json reply = client.request(future);
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_string("error", ""), kErrUnsupportedVersion);
  EXPECT_EQ(reply.get_int("protocol_version", 0), kProtocolVersion);

  // The connection survives the rejection.
  EXPECT_TRUE(client.ping());
  server.stop();
}

TEST(ServerE2E, ClientConnectRetryRidesOutLateServerStart) {
  const std::string path = unique_socket_path("late");
  std::thread late_start([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Server server(small_server(path));
    server.wait_for(10000.0);  // until the client's shutdown verb
    server.stop();
  });

  ClientOptions copts;
  copts.connect_timeout_ms = 5000.0;
  Client client(path, copts);  // no socket yet: must retry, not throw
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.shutdown_server());
  late_start.join();
}

TEST(ServerE2E, ClientConnectTimeoutEventuallyThrows) {
  ClientOptions copts;
  copts.connect_timeout_ms = 150.0;
  EXPECT_THROW(Client(unique_socket_path("never"), copts),
               std::runtime_error);
}

TEST(ServerE2E, RequestTimeoutAgainstSlowHandler) {
  // A peer that listens but never answers: the kernel completes the
  // connect from its listen queue, and the request must time out, not
  // hang.
  const std::string path = unique_socket_path("slow");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(fd, 4), 0);

  ClientOptions copts;
  copts.request_timeout_ms = 100.0;
  {
    Client client(path, copts);
    Json ping{JsonObject{}};
    ping["op"] = Json("ping");
    EXPECT_THROW(client.request(ping), std::runtime_error);
  }
  ::close(fd);
  ::unlink(path.c_str());
}

TEST(ServerE2E, StopUnblocksIdleConnections) {
  auto server = std::make_unique<Server>(
      small_server(unique_socket_path("idle")));
  Client idle(server->socket_path());  // connected, never sends
  EXPECT_TRUE(idle.ping());
  server->stop();  // must not hang on the idle connection's blocked read
  SUCCEED();
}

}  // namespace
}  // namespace gcg::svc
