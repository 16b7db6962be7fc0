// svc::Client — blocking client for the mps_serve NDJSON protocol, over
// either transport (AF_UNIX path or TCP host:port): one JSON object per
// request line, one per response line.  Used by examples/mps_client and the
// concurrency tests.
//
// Robustness: connect honours a timeout and retries with bounded
// exponential backoff (a daemon that is restarting is not an instant
// failure); request() runs its send and its response wait under one
// per-request deadline, so a hung or dead peer throws instead of blocking
// forever.  Framing is the server's: one net::Session per connection.
// The protocol handshake is optional on the wire: callers that want it
// call version() after connecting.
#pragma once

#include <memory>
#include <string>

#include "net/endpoint.hpp"
#include "net/session.hpp"
#include "svc/json.hpp"

namespace mps::svc {

struct ClientOptions {
  /// Per-attempt connect timeout; <=0 = OS default (blocking connect).
  double connect_timeout_s = 10.0;
  /// Total connection attempts (>=1); attempts after the first sleep an
  /// exponential backoff starting at 50 ms, doubling, capped at 1 s.
  int connect_attempts = 1;
  /// Per-request response timeout; <=0 = wait forever (the PR-5 default —
  /// in-process tests legitimately wait minutes for a synthesis).
  double io_timeout_s = 0.0;
};

class Client {
 public:
  /// Connect to `target` (an endpoint string: socket path or host:port).
  /// Throws util::Error when every connect attempt failed.
  explicit Client(const std::string& target, const ClientOptions& opts = {});
  explicit Client(const net::Endpoint& endpoint, const ClientOptions& opts = {});

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
  std::unique_ptr<net::Session> session_;
};

}  // namespace mps::svc
