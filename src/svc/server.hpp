// Concurrent line-delimited-JSON request server over a Unix-domain stream
// socket. One acceptor thread plus one thread per connection; every verb
// except "shutdown" is delegated to svc::handle_request. Graceful
// shutdown (stop() or the shutdown verb) stops accepting, unblocks and
// joins connection threads, drains the scheduler, and unlinks the socket.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "svc/json.hpp"
#include "svc/scheduler.hpp"
#include "util/sync.hpp"

namespace gcg::svc {

struct ServerOptions {
  std::string socket_path;  ///< required; unlinked+rebound on start
  SchedulerOptions scheduler;
  int backlog = 64;
};

class Server {
 public:
  /// Binds and starts serving immediately; throws std::runtime_error on
  /// socket/bind/listen failure (e.g. path too long for sockaddr_un).
  explicit Server(ServerOptions opts);
  ~Server();  ///< equivalent to stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Blocks until stop() is called or a client sends the shutdown verb.
  /// Does NOT tear down — call stop() after (the destructor also does).
  void wait();

  /// Like wait() but returns after `timeout_ms` at the latest. True once
  /// stop has been requested — lets callers poll a signal flag between
  /// waits (std::signal handlers can't notify a condition variable).
  bool wait_for(double timeout_ms);

  /// Async-signal-friendly: just flags the server to stop; wait() wakes.
  void request_stop();

  /// Full graceful teardown: stop accepting, unblock + join connection
  /// threads, drain the scheduler, unlink the socket. Idempotent.
  void stop();

  const std::string& socket_path() const { return opts_.socket_path; }
  Scheduler& scheduler() { return *scheduler_; }
  std::uint64_t connections_served() const;

 private:
  void start();
  void accept_loop();
  void serve_connection(int fd, std::uint64_t conn_id);
  void reap_finished();
  void close_listener();

  ServerOptions opts_;
  std::unique_ptr<Scheduler> scheduler_;
  int listen_fd_ = -1;

  std::thread acceptor_;

  // Lock ordering: mu_ (acceptor/connection state) is always acquired
  // BEFORE done_mu_ (the finished-thread parking list). The only path
  // holding both is a connection thread's exit, which moves its own
  // handle from connections_ (under mu_) onto finished_ (under
  // done_mu_). reap_finished() takes done_mu_ alone, so the acceptor can
  // drain exited threads without contending with connection setup. The
  // order is declared to clang TSA via GCG_ACQUIRED_AFTER and asserted
  // at runtime in debug builds (GCG_SVC_LOCK_RANK in server.cpp).
  mutable sync::Mutex mu_;
  sync::CondVar stop_cv_;
  bool stop_requested_ GCG_GUARDED_BY(mu_) = false;
  bool stopped_ GCG_GUARDED_BY(mu_) = false;
  /// Still serving.
  std::map<std::uint64_t, std::thread> connections_ GCG_GUARDED_BY(mu_);
  std::uint64_t next_conn_id_ GCG_GUARDED_BY(mu_) = 1;
  std::uint64_t connections_served_ GCG_GUARDED_BY(mu_) = 0;
  /// shutdown()'d to unblock reads.
  std::map<std::uint64_t, int> open_fds_ GCG_GUARDED_BY(mu_);

  mutable sync::Mutex done_mu_ GCG_ACQUIRED_AFTER(mu_);
  /// Exited; acceptor/stop joins them.
  std::vector<std::thread> finished_ GCG_GUARDED_BY(done_mu_);
};

}  // namespace gcg::svc
