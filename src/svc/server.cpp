#include "svc/server.hpp"

#include <csignal>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.hpp"
#include "util/common.hpp"
#include "util/text.hpp"

namespace mps::svc {

namespace {

// SIGTERM/SIGINT handlers can only touch async-signal-safe state: the
// handler write()s one byte to the instance's wake pipe and sets nothing
// else; all real drain work happens on the accept thread.
Server* g_signal_server = nullptr;
int g_signal_wake_fd = -1;

void handle_term_signal(int) {
  if (g_signal_wake_fd >= 0) {
    const char b = 'T';
    [[maybe_unused]] ssize_t n = ::write(g_signal_wake_fd, &b, 1);
  }
}

}  // namespace

Server::Server(const ServerOptions& opts) : opts_(opts), service_(opts.service) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
  if (g_signal_server == this) {
    g_signal_server = nullptr;
    g_signal_wake_fd = -1;
  }
  for (Connection& c : connections_) {
    if (c.thread.joinable()) c.thread.join();
  }
  if (endpoint_.kind == net::Endpoint::Kind::Unix && !endpoint_.path.empty()) {
    ::unlink(endpoint_.path.c_str());
  }
}

void Server::start() {
  MPS_ASSERT(listen_fd_ < 0);  // Server::start called twice
  endpoint_ = net::Endpoint::parse(opts_.listen);  // throws on an empty listen

  if (::pipe(wake_pipe_) != 0) {
    throw util::Error(util::format("svc: pipe: %s", std::strerror(errno)));
  }
  listen_fd_ = net::listen_on(endpoint_, opts_.backlog);
  bound_ = net::bound_endpoint(listen_fd_, endpoint_);
}

void Server::install_signal_handlers() {
  MPS_ASSERT(wake_pipe_[1] >= 0);  // install_signal_handlers before start
  g_signal_server = this;
  g_signal_wake_fd = wake_pipe_[1];
  struct sigaction sa{};
  sa.sa_handler = handle_term_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A client vanishing mid-response must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
}

void Server::request_drain() {
  draining_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char b = 'D';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::run() {
  MPS_ASSERT(listen_fd_ >= 0);  // Server::run before start
  obs::Span span("svc.server.run");

  while (!draining_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw util::Error(util::format("svc: poll: %s", std::strerror(errno)));
    }
    if (fds[1].revents != 0) {
      char buf[16];
      [[maybe_unused]] ssize_t n = ::read(wake_pipe_[0], buf, sizeof(buf));
      draining_.store(true);
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        throw util::Error(util::format("svc: accept: %s", std::strerror(errno)));
      }
      obs::counter_add("net.accepted", 1);
      reap_finished_connections();
      const net::SessionLimits limits{opts_.max_line_bytes, opts_.frame_timeout_s,
                                      kWriteTimeoutS};
      Connection& c = connections_.emplace_back();
      c.thread = std::thread([this, conn, limits, &c] {
        {
          net::Session session(conn, limits);  // closes the fd at scope end
          connection_loop(session);
        }
        c.finished.store(true);
      });
    }
  }

  // Drain: stop accepting immediately, then let every connection thread
  // finish the requests it already read (the scheduler completes all
  // admitted jobs, so blocked waiters get their responses).
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
  service_.drain();
}

void Server::reap_finished_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->finished.load()) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::connection_loop(net::Session& session) {
  obs::set_thread_name("svc-conn");

  // Handle one received frame; returns false when the session must close.
  auto handle = [&](const std::string& line) -> bool {
    obs::Span span("net.request");
    obs::counter_add("net.requests", 1);
    const std::string response = service_.handle_line(line);
    if (session.write_line(response) != net::IoStatus::Ok) return false;
    if (service_.drain_requested()) request_drain();
    return true;
  };

  bool open = true;
  while (open) {
    std::string line;
    // Short idle slices so the thread notices a drain triggered elsewhere
    // (signal, another connection's drain request).
    switch (session.read_line(&line, util::Deadline::after(0.2))) {
      case net::Session::Read::Line:
        open = handle(line);
        break;
      case net::Session::Read::Idle:
        break;
      case net::Session::Read::Oversized:
        obs::counter_add("net.oversized", 1);
        session.write_line(protocol_error(
            "", "bad_request",
            util::format("request line exceeds %zu bytes", opts_.max_line_bytes)));
        open = false;
        break;
      case net::Session::Read::FrameTimeout:
        obs::counter_add("net.frame_timeout", 1);
        session.write_line(protocol_error(
            "", "bad_request",
            util::format("frame incomplete after %.1f s", opts_.frame_timeout_s)));
        open = false;
        break;
      case net::Session::Read::Eof:
      case net::Session::Read::Error:
        open = false;
        break;
    }
    if (open && draining_.load()) {
      // Final scoop: answer any requests whose lines already arrived, then
      // close.  New data after this point is the client's race to lose.
      for (;;) {
        const auto st = session.read_line(&line, util::Deadline::after(0.001));
        if (st == net::Session::Read::Line) {
          if (!handle(line)) break;
          continue;
        }
        break;
      }
      open = false;
    }
  }
}

}  // namespace mps::svc
