#include "svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "svc/service.hpp"  // kProtocolVersion
#include "util/common.hpp"
#include "util/text.hpp"

namespace mps::svc {

namespace {
/// Connect retry backoff: the first retry waits kBackoffS, each further
/// one twice as long, capped at kBackoffMaxS.
constexpr double kBackoffS = 0.05;
constexpr double kBackoffMaxS = 1.0;
}  // namespace

Client::Client(const std::string& target, const ClientOptions& opts)
    : Client(net::Endpoint::parse(target), opts) {}

Client::Client(const net::Endpoint& endpoint, const ClientOptions& opts)
    : endpoint_(endpoint), opts_(opts) {
  connect();
}

void Client::connect() {
  const int attempts = opts_.connect_attempts < 1 ? 1 : opts_.connect_attempts;
  double backoff = kBackoffS;
  std::string last_error;
  int fd = -1;
  for (int attempt = 0; attempt < attempts && fd < 0; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, kBackoffMaxS);
    }
    try {
      fd = net::connect_to(endpoint_, util::Deadline::after(opts_.connect_timeout_s));
    } catch (const util::Error& e) {
      last_error = e.what();
    }
  }
  if (fd < 0) {
    throw util::Error(util::format("svc: connect(%s) failed after %d attempt(s): %s",
                                   endpoint_.str().c_str(), attempts, last_error.c_str()));
  }
  // Responses have no size cap and no frame timeout: the request deadline
  // is the only budget.
  session_ = std::make_unique<net::Session>(
      fd, net::SessionLimits{.max_line_bytes = std::numeric_limits<std::size_t>::max()});
}

Json Client::request(const Json& req, double timeout_s) {
  MPS_ASSERT(session_ != nullptr);  // request on a moved-from client
  const double budget = timeout_s > 0 ? timeout_s : opts_.io_timeout_s;
  const util::Deadline deadline = util::Deadline::after(budget);

  switch (session_->write_line(req.dump(), deadline)) {
    case net::IoStatus::Ok:
      break;
    case net::IoStatus::Timeout:
      throw util::Error(util::format("svc: send to %s timed out after %.1f s",
                                     endpoint_.str().c_str(), budget));
    default:
      throw util::Error(util::format("svc: send to %s failed: %s", endpoint_.str().c_str(),
                                     std::strerror(errno)));
  }

  std::string response;
  switch (session_->read_line(&response, deadline)) {
    case net::Session::Read::Line:
      return Json::parse(response);
    case net::Session::Read::Eof:
      throw util::Error("svc: connection closed by daemon before response");
    case net::Session::Read::Idle:
      throw util::Error(util::format("svc: no response from %s after %.1f s",
                                     endpoint_.str().c_str(), budget));
    default:  // Error; Oversized and FrameTimeout cannot occur without limits
      throw util::Error(
          util::format("svc: recv from %s failed: %s", endpoint_.str().c_str(),
                       std::strerror(errno)));
  }
}

Json Client::ping() {
  Json j = Json::object();
  j.set("op", "ping");
  return request(j);
}

Json Client::stats() {
  Json j = Json::object();
  j.set("op", "stats");
  return request(j);
}

Json Client::drain() {
  Json j = Json::object();
  j.set("op", "drain");
  return request(j);
}

Json Client::version() {
  Json j = Json::object();
  j.set("op", "version");
  j.set("protocol", Json(kProtocolVersion));
  const Json resp = request(j, opts_.connect_timeout_s);
  if (!resp.get_bool("ok", false)) {
    throw util::Error(util::format(
        "svc: %s: %s", endpoint_.str().c_str(),
        resp.get_string("error", "protocol version handshake failed").c_str()));
  }
  return resp;
}

Json Client::synth(const std::string& g_text, const std::string& method, double deadline_s,
                   const std::string& engine) {
  Json j = Json::object();
  j.set("op", "synth");
  j.set("g", g_text);
  j.set("method", method);
  if (deadline_s > 0.0) j.set("deadline_s", Json(deadline_s));
  if (!engine.empty()) j.set("engine", engine);
  return request(j);
}

}  // namespace mps::svc
