// Blocking client for the coloring service: connects to the server's
// Unix-domain socket, sends one JSON request per line, reads one JSON
// reply per line. Used by examples/color_client, the end-to-end tests,
// and the throughput bench. Not thread-safe; use one Client per thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "svc/job.hpp"
#include "svc/json.hpp"

namespace gcg::svc {

struct ClientOptions {
  /// Total budget for connect retries. A fresh server needs a moment
  /// between exec and listen(); retrying under this budget absorbs that
  /// race. The first retry waits 5 ms, and each wait doubles up to
  /// 200 ms. 0 = single attempt, fail immediately.
  double connect_timeout_ms = 0.0;
  /// Deadline for each request's reply (send + read). 0 = wait forever.
  /// On expiry request() throws and the connection is left in an
  /// undefined protocol state — drop the Client.
  double request_timeout_ms = 0.0;
};

class Client {
 public:
  using Options = ClientOptions;

  /// Connects immediately; throws std::runtime_error on failure (after
  /// exhausting opts.connect_timeout_ms if retries are enabled).
  explicit Client(const std::string& socket_path, const Options& opts = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  /// Sends `req` and returns the server's reply. Stamps the protocol
  /// version into the request when the caller did not. Throws on broken
  /// connections, malformed replies, or an expired request timeout.
  Json request(const Json& req);

  // --- verb conveniences ---------------------------------------------------
  /// Returns the reply as-is; check reply.get_bool("ok", false) and
  /// reply.get_string("error", "") for rejections (e.g. "queue_full").
  Json submit(const JobSpec& spec, bool wait = false);
  Json status(std::uint64_t id);
  /// Blocks server-side until the job is terminal (or timeout_ms expires).
  Json result(std::uint64_t id, double timeout_ms = 0.0);
  Json cancel(std::uint64_t id);
  Json stats();
  bool ping();
  /// Asks the server to stop; returns true if it acknowledged.
  bool shutdown_server();

 private:
  Options opts_;
  int fd_ = -1;
  std::string buf_;  // partial-line carry between replies
};

}  // namespace gcg::svc
