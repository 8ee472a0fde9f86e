#include "svc/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "svc/protocol.hpp"
#include "util/narrow.hpp"

namespace gcg::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Connect retries back off exponentially: the first waits kFirstRetryMs,
/// and each later one doubles up to kMaxRetryMs.
constexpr double kFirstRetryMs = 5.0;
constexpr double kMaxRetryMs = 200.0;

double ms_until(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

/// Server not there (yet): worth retrying under a connect budget. ENOENT
/// covers the socket file not existing yet; ECONNREFUSED a bound-but-
/// not-listening (or just-died) server.
bool connect_retriable(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
         err == EINTR;
}

}  // namespace

Client::Client(const std::string& socket_path, const Options& opts)
    : opts_(opts) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("client: bad socket path: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             opts_.connect_timeout_ms));
  double backoff_ms = kFirstRetryMs;
  while (true) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error(std::string("client: socket(): ") +
                               std::strerror(errno));
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0) {
      return;
    }
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    const double left = ms_until(give_up);
    if (!connect_retriable(err) || left <= 0.0) {
      throw std::runtime_error("client: connect(" + socket_path +
                               "): " + std::strerror(err));
    }
    // Capped exponential backoff, never sleeping past the budget.
    const double nap = std::min(backoff_ms, left);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(nap));
    backoff_ms = std::min(backoff_ms * 2.0, kMaxRetryMs);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : opts_(other.opts_), fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

Json Client::request(const Json& req) {
  std::string line;
  if (req.is_object() && !req.has("protocol_version")) {
    Json stamped = req;
    stamped["protocol_version"] = Json(kProtocolVersion);
    line = stamped.dump();
  } else {
    line = req.dump();
  }
  line += '\n';

  const bool timed = opts_.request_timeout_ms > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             opts_.request_timeout_ms));

  std::size_t off = 0;
  while (off < line.size()) {
    // MSG_NOSIGNAL: a server that died mid-request must surface as EPIPE
    // (exception below), not a SIGPIPE that kills the client process.
    const ssize_t n =
        ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        throw std::runtime_error("client: server closed the connection");
      }
      throw std::runtime_error(std::string("client: write(): ") +
                               std::strerror(errno));
    }
    off += to_unsigned(n);
  }

  while (true) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      const std::string reply = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return Json::parse(reply);
    }
    if (timed) {
      // Bounded wait for readability; a reply that misses the deadline
      // leaves this connection mid-protocol, so callers must not reuse
      // the Client after this throw.
      const double left = ms_until(deadline);
      if (left <= 0.0) {
        throw std::runtime_error("client: request timed out");
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int r = ::poll(&pfd, 1,
                           narrow<int>(std::min(left + 1.0, 1.0e9)));
      if (r < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("client: poll(): ") +
                                 std::strerror(errno));
      }
      if (r == 0) continue;  // re-check the deadline
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("client: read(): ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error("client: server closed the connection");
    }
    buf_.append(chunk, to_unsigned(n));
  }
}

Json Client::submit(const JobSpec& spec, bool wait) {
  Json req = job_spec_to_json(spec);
  req["op"] = Json("submit");
  if (wait) req["wait"] = Json(true);
  return request(req);
}

Json Client::status(std::uint64_t id) {
  Json req{JsonObject{}};
  req["op"] = Json("status");
  req["id"] = Json(id);
  return request(req);
}

Json Client::result(std::uint64_t id, double timeout_ms) {
  Json req{JsonObject{}};
  req["op"] = Json("result");
  req["id"] = Json(id);
  if (timeout_ms > 0.0) req["timeout_ms"] = Json(timeout_ms);
  return request(req);
}

Json Client::cancel(std::uint64_t id) {
  Json req{JsonObject{}};
  req["op"] = Json("cancel");
  req["id"] = Json(id);
  return request(req);
}

Json Client::stats() {
  Json req{JsonObject{}};
  req["op"] = Json("stats");
  return request(req);
}

bool Client::ping() {
  Json req{JsonObject{}};
  req["op"] = Json("ping");
  return request(req).get_bool("ok", false);
}

bool Client::shutdown_server() {
  Json req{JsonObject{}};
  req["op"] = Json("shutdown");
  return request(req).get_bool("ok", false);
}

}  // namespace gcg::svc
