#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "svc/protocol.hpp"
#include "util/expect.hpp"
#include "util/narrow.hpp"

namespace gcg::svc {

namespace {

/// Connects the kernel queues for listen() before accept() takes them.
constexpr int kListenQueue = 64;

#if !defined(NDEBUG)
// Runtime check of the documented mu_ -> done_mu_ lock order (server.hpp).
// Clang TSA proves the order statically via GCG_ACQUIRED_AFTER, but only
// on clang builds; this thread-local rank stack catches an inversion on
// any debug build, under TSan, and in the model-check lanes. Each lock
// site declares its rank right after acquiring; acquiring a rank not
// strictly above the one already held aborts.
thread_local int t_held_rank = 0;

class LockRank {
 public:
  explicit LockRank(int rank) : prev_(t_held_rank) {
    GCG_DCHECK(prev_ < rank);  // lock-order inversion (see server.hpp)
    t_held_rank = rank;
  }
  ~LockRank() { t_held_rank = prev_; }
  LockRank(const LockRank&) = delete;
  LockRank& operator=(const LockRank&) = delete;

 private:
  int prev_;
};

#define GCG_SVC_LOCK_RANK(var, rank) const LockRank var(rank)
#else
#define GCG_SVC_LOCK_RANK(var, rank) ((void)0)
#endif

[[maybe_unused]] constexpr int kRankAcceptor = 1;  // mu_
[[maybe_unused]] constexpr int kRankDoneList = 2;  // done_mu_ (nests inside mu_)

/// Writes all of `data` + '\n'; false on a broken connection.
/// MSG_NOSIGNAL: a client that disconnects before its reply arrives must
/// yield EPIPE here, not a process-killing SIGPIPE.
bool write_line(int fd, const std::string& data) {
  std::string line = data;
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: peer is gone
    }
    off += to_unsigned(n);
  }
  return true;
}

/// Buffered line reader over a blocking fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF / error; strips the trailing '\n' (and '\r').
  bool next(std::string& line) {
    line.clear();
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // EOF; any partial line is dropped
      buf_.append(chunk, to_unsigned(n));
      if (buf_.size() > kMaxLine) return false;  // oversized request
    }
  }

 private:
  static constexpr std::size_t kMaxLine = 16u << 20;  // 16 MiB
  int fd_;
  std::string buf_;
};

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  start();
  scheduler_ = std::make_unique<Scheduler>(opts_.scheduler);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::start() {
  if (opts_.socket_path.empty()) {
    throw std::runtime_error("server: socket_path is required");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("server: socket path too long: " +
                             opts_.socket_path);
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("server: socket(): ") +
                             std::strerror(errno));
  }
  ::unlink(opts_.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("server: bind(" + opts_.socket_path +
                             "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, kListenQueue) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
    throw std::runtime_error(std::string("server: listen(): ") +
                             std::strerror(err));
  }
}

Server::~Server() { stop(); }

void Server::accept_loop() {
  while (true) {
    reap_finished();
    {
      sync::LockGuard lock(mu_);
      GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
      if (stop_requested_) return;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);  // 100 ms stop-flag poll
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (r == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener closed
    }
    sync::LockGuard lock(mu_);
    GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
    if (stop_requested_) {
      ::close(fd);
      return;
    }
    const std::uint64_t id = next_conn_id_++;
    ++connections_served_;
    open_fds_[id] = fd;
    connections_[id] = std::thread([this, fd, id] {
      serve_connection(fd, id);
    });
  }
}

void Server::serve_connection(int fd, std::uint64_t conn_id) {
  LineReader reader(fd);
  std::string line;
  bool shutdown_verb = false;
  while (!shutdown_verb && reader.next(line)) {
    if (line.empty()) continue;

    std::string reply;
    Json req;
    bool parsed = true;
    try {
      req = Json::parse(line);
    } catch (const std::exception& e) {
      reply = error_reply(kErrProtocol, e.what()).dump();
      parsed = false;
    }

    if (parsed) {
      // Intercept the lifecycle verb; everything else is protocol-layer.
      if (req.is_object() && req.get_string("op", "") == "shutdown") {
        Json out{JsonObject{}};
        out["ok"] = Json(true);
        out["stopping"] = Json(true);
        reply = out.dump();
        shutdown_verb = true;
      } else {
        reply = handle_request(*scheduler_, req).dump();
      }
    }
    if (!write_line(fd, reply)) break;
  }

  ::close(fd);
  {
    // The one place both locks are held: mu_ first, done_mu_ nested —
    // the documented order (server.hpp).
    sync::LockGuard lock(mu_);
    GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
    open_fds_.erase(conn_id);
    // Park our own thread handle on the done-list for the acceptor (or
    // stop()) to join — a long-running server must not accumulate one
    // unjoined thread per connection ever served. stop() may already
    // have claimed the handle, in which case it joins us directly.
    const auto it = connections_.find(conn_id);
    if (it != connections_.end()) {
      sync::LockGuard done_lock(done_mu_);
      GCG_SVC_LOCK_RANK(done_rank, kRankDoneList);
      finished_.push_back(std::move(it->second));
      connections_.erase(it);
    }
  }
  if (shutdown_verb) request_stop();
}

void Server::reap_finished() {
  std::vector<std::thread> done;
  {
    sync::LockGuard lock(done_mu_);
    GCG_SVC_LOCK_RANK(rank, kRankDoneList);
    done.swap(finished_);
  }
  // Joins happen outside the lock: the threads' own exit path locks
  // mu_ and done_mu_.
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

void Server::request_stop() {
  {
    sync::LockGuard lock(mu_);
    GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  sync::LockGuard lock(mu_);
  GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
  while (!stop_requested_) stop_cv_.wait(mu_);
}

bool Server::wait_for(double timeout_ms) {
  using Clock = std::chrono::steady_clock;
  // Deadline-based so a spurious wakeup cannot stretch the timeout.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  sync::LockGuard lock(mu_);
  GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
  while (!stop_requested_ && stop_cv_.wait_until(mu_, deadline)) {}
  return stop_requested_;
}

void Server::close_listener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::stop() {
  request_stop();

  if (acceptor_.joinable()) acceptor_.join();
  close_listener();

  // Unblock connection threads stuck in read()/wait and join them. The
  // map is drained under the lock but joins happen outside it, since the
  // threads themselves lock mu_ on exit.
  while (true) {
    std::thread victim;
    {
      sync::LockGuard lock(mu_);
      GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
      if (connections_.empty()) break;
      const auto it = connections_.begin();
      const auto fd_it = open_fds_.find(it->first);
      if (fd_it != open_fds_.end()) {
        ::shutdown(fd_it->second, SHUT_RDWR);  // wakes the blocked read
      }
      victim = std::move(it->second);
      connections_.erase(it);
    }
    if (victim.joinable()) victim.join();
  }
  reap_finished();  // threads that exited on their own since the last reap

  {
    sync::LockGuard lock(mu_);
    GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
    if (stopped_) return;
    stopped_ = true;
  }
  if (scheduler_) scheduler_->shutdown(/*drain=*/true);
  ::unlink(opts_.socket_path.c_str());
}

std::uint64_t Server::connections_served() const {
  sync::LockGuard lock(mu_);
  GCG_SVC_LOCK_RANK(rank, kRankAcceptor);
  return connections_served_;
}

}  // namespace gcg::svc
