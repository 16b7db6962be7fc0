#include "svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include <unistd.h>

#include "net/io.hpp"
#include "svc/service.hpp"  // kProtocolVersion
#include "util/common.hpp"
#include "util/text.hpp"

namespace mps::svc {

Client::Client(const std::string& target, const ClientOptions& opts)
    : Client(net::Endpoint::parse(target), opts) {}

Client::Client(const net::Endpoint& endpoint, const ClientOptions& opts)
    : endpoint_(endpoint), opts_(opts) {
  connect();
}

void Client::connect() {
  const int attempts = opts_.connect_attempts < 1 ? 1 : opts_.connect_attempts;
  double backoff = opts_.backoff_s;
  std::string last_error;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, opts_.backoff_max_s);
    }
    try {
      fd_ = net::connect_to(endpoint_, opts_.connect_timeout_s);
      break;
    } catch (const util::Error& e) {
      last_error = e.what();
      fd_ = -1;
    }
  }
  if (fd_ < 0) {
    throw util::Error(util::format("svc: connect(%s) failed after %d attempt(s): %s",
                                   endpoint_.str().c_str(), attempts, last_error.c_str()));
  }
  if (opts_.handshake) {
    try {
      version();
    } catch (...) {
      ::close(fd_);
      fd_ = -1;
      throw;
    }
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : endpoint_(std::move(other.endpoint_)),
      opts_(other.opts_),
      fd_(other.fd_),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    endpoint_ = std::move(other.endpoint_);
    opts_ = other.opts_;
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Json Client::request(const Json& req, double timeout_s) {
  MPS_ASSERT(fd_ >= 0);  // request on closed client
  const double budget = timeout_s > 0 ? timeout_s : opts_.io_timeout_s;
  const net::Deadline deadline = net::Deadline::after(budget);

  std::string line = req.dump();
  line.push_back('\n');
  switch (net::write_all(fd_, line, deadline)) {
    case net::IoStatus::Ok:
      break;
    case net::IoStatus::Timeout:
      throw util::Error(util::format("svc: send to %s timed out after %.1f s",
                                     endpoint_.str().c_str(), budget));
    default:
      throw util::Error(util::format("svc: send to %s failed: %s", endpoint_.str().c_str(),
                                     std::strerror(errno)));
  }

  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string response = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return Json::parse(response);
    }
    switch (net::read_chunk(fd_, &buffer_, deadline)) {
      case net::IoStatus::Ok:
        break;
      case net::IoStatus::Eof:
        throw util::Error("svc: connection closed by daemon before response");
      case net::IoStatus::Timeout:
        throw util::Error(util::format("svc: no response from %s after %.1f s",
                                       endpoint_.str().c_str(), budget));
      case net::IoStatus::Error:
        throw util::Error(
            util::format("svc: recv from %s failed: %s", endpoint_.str().c_str(),
                         std::strerror(errno)));
    }
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
