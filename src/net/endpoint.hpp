// net::Endpoint — one address type for both transports the service layer
// speaks: AF_UNIX socket paths and TCP host:port.  Everything above this
// header (svc::Server, svc::Client) is transport-agnostic:
// it parses a string into an Endpoint and calls listen_on / connect_to.
//
// Textual forms accepted by parse():
//   /path/to.sock, ./rel.sock      -> Unix (anything containing '/')
//   unix:PATH                      -> Unix (explicit, for paths w/o '/')
//   host:port, tcp:host:port       -> TCP  (host = name or IPv4 literal)
//
// Ephemeral ports: listen_on() binds whatever the endpoint says; asking for
// TCP port 0 lets the kernel pick a free port, and bound_endpoint() reads
// the actual port back — the collision-free way for parallel ctests to get
// a listening address (never "pick a random port and hope").
#pragma once

#include <cstdint>
#include <string>

#include "util/common.hpp"

namespace mps::net {

struct Endpoint {
  enum class Kind { Unix, Tcp };

  Kind kind = Kind::Unix;
  std::string path;            ///< Unix only
  std::string host;            ///< TCP only
  std::uint16_t port = 0;      ///< TCP only; 0 = kernel-assigned (listen)

  static Endpoint unix_path(std::string p);
  static Endpoint tcp(std::string host, std::uint16_t port);

  /// Parse the textual forms above.  Throws util::Error on an empty string,
  /// a bad port, or a Unix path too long for sockaddr_un.
  static Endpoint parse(const std::string& text);

  /// Canonical text ("path" / "host:port") — parse(str()) round-trips.
  std::string str() const;

  bool is_tcp() const { return kind == Kind::Tcp; }
};

/// Create + bind + listen a socket for `ep`; returns the listening fd.
/// Unix: an existing socket file is replaced (stale daemon crash leftovers).
/// TCP: SO_REUSEADDR, binds all resolved addresses' first match.
/// Throws util::Error on any failure.
int listen_on(const Endpoint& ep, int backlog);

/// The endpoint `listen_fd` actually bound — identical to the request except
/// that a TCP port 0 is resolved to the kernel-assigned port.
Endpoint bound_endpoint(int listen_fd, const Endpoint& requested);

/// Connect before `deadline` (non-blocking connect + poll under the hood;
/// a never-expiring deadline waits as long as the OS does).  Returns a
/// connected fd in blocking mode.  Throws util::Error on failure or timeout.
int connect_to(const Endpoint& ep, const util::Deadline& deadline);

}  // namespace mps::net
