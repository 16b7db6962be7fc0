#include "net/endpoint.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "net/io.hpp"
#include "util/common.hpp"
#include "util/parse.hpp"
#include "util/text.hpp"

namespace mps::net {

namespace {

constexpr std::size_t kMaxUnixPath = sizeof(sockaddr_un::sun_path) - 1;

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  MPS_ASSERT(path.size() <= kMaxUnixPath);  // parse() enforced the limit
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// getaddrinfo for a TCP endpoint; caller freeaddrinfo()s the result.
addrinfo* resolve_tcp(const Endpoint& ep, bool for_listen) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  if (for_listen) hints.ai_flags = AI_PASSIVE;
  const std::string port = std::to_string(ep.port);
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(ep.host.empty() ? nullptr : ep.host.c_str(), port.c_str(),
                               &hints, &result);
  if (rc != 0) {
    throw util::Error(
        util::format("net: resolve %s: %s", ep.str().c_str(), ::gai_strerror(rc)));
  }
  return result;
}

void set_blocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  const int want = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  if (want != flags) ::fcntl(fd, F_SETFL, want);
}

}  // namespace

Endpoint Endpoint::unix_path(std::string p) {
  Endpoint ep;
  ep.kind = Kind::Unix;
  ep.path = std::move(p);
  return ep;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint ep;
  ep.kind = Kind::Tcp;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

Endpoint Endpoint::parse(const std::string& text) {
  if (text.empty()) throw util::Error("net: empty endpoint");

  std::string body = text;
  bool force_unix = false, force_tcp = false;
  if (body.rfind("unix:", 0) == 0) {
    force_unix = true;
    body = body.substr(5);
  } else if (body.rfind("tcp:", 0) == 0) {
    force_tcp = true;
    body = body.substr(4);
  }

  const std::size_t colon = body.rfind(':');
  const bool looks_tcp = colon != std::string::npos && body.find('/') == std::string::npos;
  if (!force_unix && (force_tcp || looks_tcp)) {
    if (colon == std::string::npos) {
      throw util::Error(util::format("net: TCP endpoint needs host:port: '%s'", text.c_str()));
    }
    const std::string host = body.substr(0, colon);
    const auto port = util::parse_int(body.substr(colon + 1), 0, 65535);
    if (!port.has_value()) {
      throw util::Error(util::format("net: bad port in endpoint '%s'", text.c_str()));
    }
    if (host.empty()) {
      throw util::Error(util::format("net: empty host in endpoint '%s'", text.c_str()));
    }
    return tcp(host, static_cast<std::uint16_t>(*port));
  }

  if (body.empty()) throw util::Error("net: empty unix socket path");
  if (body.size() > kMaxUnixPath) {
    throw util::Error(util::format("net: socket path too long (%zu bytes, max %zu): %s",
                                   body.size(), kMaxUnixPath, body.c_str()));
  }
  return unix_path(body);
}

std::string Endpoint::str() const {
  if (kind == Kind::Unix) return path;
  return host + ":" + std::to_string(port);
}

int listen_on(const Endpoint& ep, int backlog) {
  if (backlog <= 0) throw util::Error("net: backlog must be positive");

  if (ep.kind == Endpoint::Kind::Unix) {
    if (ep.path.empty()) throw util::Error("net: empty socket path");
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw util::Error(util::format("net: socket: %s", std::strerror(errno)));
    // A stale socket file from a crashed daemon would make bind fail; replace it.
    ::unlink(ep.path.c_str());
    const sockaddr_un addr = unix_addr(ep.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
      const int err = errno;
      ::close(fd);
      throw util::Error(util::format("net: listen(%s): %s", ep.path.c_str(),
                                     std::strerror(err)));
    }
    return fd;
  }

  addrinfo* addrs = resolve_tcp(ep, /*for_listen=*/true);
  int fd = -1;
  int last_err = 0;
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 && ::listen(fd, backlog) == 0) break;
    last_err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    throw util::Error(
        util::format("net: listen(%s): %s", ep.str().c_str(), std::strerror(last_err)));
  }
  return fd;
}

Endpoint bound_endpoint(int listen_fd, const Endpoint& requested) {
  if (requested.kind == Endpoint::Kind::Unix) return requested;
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0) return requested;
  Endpoint ep = requested;
  if (ss.ss_family == AF_INET) {
    ep.port = ntohs(reinterpret_cast<const sockaddr_in&>(ss).sin_port);
  } else if (ss.ss_family == AF_INET6) {
    ep.port = ntohs(reinterpret_cast<const sockaddr_in6&>(ss).sin6_port);
  }
  return ep;
}

int connect_to(const Endpoint& ep, const util::Deadline& deadline) {
  // Non-blocking connect + wait_ready gives the timeout; the fd is switched
  // back to blocking before it is returned (all session I/O is
  // poll-then-read).
  auto finish_connect = [&](int fd) -> bool {
    switch (wait_ready(fd, POLLOUT, deadline)) {
      case IoStatus::Ok:
        break;
      case IoStatus::Timeout:
        errno = ETIMEDOUT;
        return false;
      default:
        return false;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
    if (err != 0) {
      errno = err;
      return false;
    }
    return true;
  };

  auto try_connect = [&](int fd, const sockaddr* sa, socklen_t salen) -> bool {
    set_blocking(fd, false);
    if (::connect(fd, sa, salen) == 0 || errno == EINPROGRESS) {
      if (finish_connect(fd)) {
        set_blocking(fd, true);
        return true;
      }
    }
    return false;
  };

  if (ep.kind == Endpoint::Kind::Unix) {
    if (ep.path.empty() || ep.path.size() > kMaxUnixPath) {
      throw util::Error(util::format("net: bad socket path: '%s'", ep.path.c_str()));
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw util::Error(util::format("net: socket: %s", std::strerror(errno)));
    const sockaddr_un addr = unix_addr(ep.path);
    if (!try_connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr))) {
      const int err = errno;
      ::close(fd);
      throw util::Error(
          util::format("net: connect(%s): %s", ep.path.c_str(), std::strerror(err)));
    }
    return fd;
  }

  addrinfo* addrs = resolve_tcp(ep, /*for_listen=*/false);
  int fd = -1;
  int last_err = 0;
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    if (try_connect(fd, ai->ai_addr, ai->ai_addrlen)) break;
    last_err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) {
    throw util::Error(
        util::format("net: connect(%s): %s", ep.str().c_str(), std::strerror(last_err)));
  }
  // Request/response lines are small; batching them behind Nagle only adds
  // tail latency.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace mps::net
