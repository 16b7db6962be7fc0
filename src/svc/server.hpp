// svc::Server — the synthesis daemon around svc::Service, on either
// transport: an AF_UNIX socket path or a TCP host:port (net::Endpoint).
// The accept loop, session handling, framing, limits and drain semantics
// are one code path — the transports differ only in listen_on/connect_to.
//
// One accept loop (poll on the listen socket plus a self-pipe wake fd), one
// thread per connection running a net::Session (NDJSON framing, frame-size
// cap, per-session timeouts).  The accept loop joins the threads of
// finished connections as it goes, so a long-lived daemon holds only its
// live connections' stacks.  POSIX sockets only, no framework.
//
// Graceful drain (SIGTERM, or a {"op":"drain"} request):
//   1. stop accepting — the listen socket closes immediately;
//   2. connection threads stop reading *new* requests, but every request
//      whose line was already received is processed and answered (the
//      scheduler runs every admitted job to completion — no accepted
//      request ever loses its response);
//   3. run() returns once all connections closed and the queue is empty;
//      the daemon then exits 0.
// A client blocked waiting for a response keeps its connection until that
// response is written; an idle client is disconnected (EOF) right away.
#pragma once

#include <atomic>
#include <list>
#include <string>
#include <thread>

#include "net/endpoint.hpp"
#include "net/session.hpp"
#include "svc/service.hpp"

namespace mps::svc {

/// Per-session response write budget, seconds.
inline constexpr double kWriteTimeoutS = 30.0;

struct ServerOptions {
  /// Any net::Endpoint text — "host:port" for TCP, a path or "unix:PATH"
  /// for AF_UNIX.  TCP port 0 binds a kernel-assigned port; see
  /// bound_endpoint().
  std::string listen;
  /// listen(2) backlog (was hardcoded 64 before PR 8).
  int backlog = 64;
  /// Max bytes of one request line; longer frames get a JSON error + close
  /// instead of unbounded buffering.
  std::size_t max_line_bytes = 8u << 20;
  /// Per-session frame timeout (0 = none): a frame that stays incomplete
  /// longer than this closes that session only.  A response write blocked
  /// longer than kWriteTimeoutS does the same.
  double frame_timeout_s = 30.0;
  ServiceOptions service;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on the configured endpoint (an existing Unix socket file
  /// is replaced).  Throws util::Error on failure.  Separate from run() so
  /// callers can report "listening" before blocking.
  void start();

  /// Accept and serve until a drain is requested, then shut down gracefully
  /// (see file comment) and return.  Call start() first.
  void run();

  /// Trigger a graceful drain from another thread.  Also what the SIGTERM
  /// handler invokes via the self-pipe (the handler itself only write()s).
  void request_drain();

  /// Route SIGTERM and SIGINT to request_drain() for this instance (at most
  /// one instance per process may install handlers).
  void install_signal_handlers();

  Service& service() { return service_; }
  /// The endpoint actually bound (TCP port 0 resolved); valid after start().
  const net::Endpoint& bound_endpoint() const { return bound_; }

 private:
  /// One connection's thread; `finished` is set as the thread's last act,
  /// so the accept loop can join it without blocking.
  struct Connection {
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void connection_loop(net::Session& session);
  /// Join and drop every connection whose thread has finished.
  void reap_finished_connections();

  ServerOptions opts_;
  Service service_;
  net::Endpoint endpoint_;
  net::Endpoint bound_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};
  /// Owned by the thread in run(); list nodes stay put for `finished`.
  std::list<Connection> connections_;
};

}  // namespace mps::svc
