// svc::Client — blocking client for the mps_serve NDJSON protocol, over
// either transport (AF_UNIX path or TCP host:port): one JSON object per
// request line, one per response line.  Used by examples/mps_client and the
// concurrency tests.
//
// Robustness: connect honours a timeout and retries with bounded
// exponential backoff (a daemon that is restarting is not an instant
// failure); request() honours a per-request read timeout so a hung or dead
// peer throws instead of blocking recv forever.
#pragma once

#include <string>

#include "net/endpoint.hpp"
#include "svc/json.hpp"

namespace mps::svc {

struct ClientOptions {
  /// Per-attempt connect timeout; <=0 = OS default (blocking connect).
  double connect_timeout_s = 10.0;
  /// Total connection attempts (>=1); attempts after the first sleep an
  /// exponential backoff starting at backoff_s, doubling, capped at
  /// backoff_max_s.
  int connect_attempts = 1;
  double backoff_s = 0.05;
  double backoff_max_s = 1.0;
  /// Per-request response timeout; <=0 = wait forever (the PR-5 default —
  /// in-process tests legitimately wait minutes for a synthesis).
  double io_timeout_s = 0.0;
  /// Send {"op":"version"} on connect and fail fast on a protocol
  /// mismatch.  Off by default: the handshake is optional on the wire.
  bool handshake = false;
};

class Client {
 public:
  /// Connect to `target` (an endpoint string: socket path or host:port).
  /// Throws util::Error when every connect attempt failed, or on a
  /// handshake version mismatch.
  explicit Client(const std::string& target, const ClientOptions& opts = {});
  explicit Client(const net::Endpoint& endpoint, const ClientOptions& opts = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Send one request and block for its response line.  Throws util::Error
  /// on I/O failure, EOF (daemon gone), or the io timeout; protocol-level
  /// errors come back as {"ok":false,...} objects, not exceptions.
  /// `timeout_s` > 0 overrides opts.io_timeout_s for this request.
  Json request(const Json& req, double timeout_s = 0.0);

  /// Convenience wrappers over request().
  Json ping();
  Json stats();
  Json drain();
  /// The version handshake; throws util::Error when the server speaks a
  /// different protocol version.
  Json version();
  /// `engine` is the wire spelling ("dpll"/"cdcl", sat::engine_name); empty
  /// omits the field and lets the daemon default (dpll).
  Json synth(const std::string& g_text, const std::string& method, double deadline_s = 0.0,
             const std::string& engine = "");

  const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  void connect();

  net::Endpoint endpoint_;
  ClientOptions opts_;
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last response line
};

}  // namespace mps::svc
