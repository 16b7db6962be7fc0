// svc::Service — the transport-independent request handler: one JSON line
// in, one JSON line out.  The Unix-socket server (svc/server.hpp) and the
// in-process tests both speak to this class, so the protocol is testable
// without sockets.
//
// Protocol (newline-delimited JSON; one object per line; see DESIGN.md §10
// for the grammar):
//   {"op":"ping"}                       -> {"ok":true,"op":"ping"}
//   {"op":"version","protocol":V}       -> {"ok":true,"op":"version",
//                                           "protocol":kProtocolVersion}
//   {"op":"synth","g":"<.g text>",      -> {"ok":true,"op":"synth","cached":B,
//    "method":"modular","threads":N,        "digest":"<64 hex>",
//    "deadline_s":S}                        "artifact":{...}}   (svc::Artifact)
//   {"op":"stats"}                      -> {"ok":true,"op":"stats","cache":{...},
//                                           "scheduler":{...},"counters":{...}}
//   {"op":"drain"}                      -> {"ok":true,"op":"drain"}  + drain flag
// Error responses: {"ok":false,"op":"<op>","kind":"<k>","error":"<msg>"}
// with kind in {bad_request, parse, overloaded, internal, version}.  A
// synth request is a bad_request unless threads is an integer in 0..65536
// (a protocol-v1 field, accepted and otherwise ignored) and deadline_s is
// finite, non-negative and small enough for a steady_clock deadline.  A synthesis that *ran* but
// failed (CSC unresolved, deadline fired) is NOT a protocol error: the
// response is ok:true with artifact.success=false, mirroring mps_synth's
// exit-1-with-reason behaviour.
//
// The stats "counters" block (svc.requests, net.*) reads obs:: counters,
// which only record while the obs layer is on: mps_serve turns it on with
// --trace.  The cache and scheduler blocks count always.
//
// The version op is the handshake: a client that
// cares about compatibility sends it first; a mismatched "protocol" gets
// kind:"version" back (with the server's version) and should disconnect.
// Requests without a handshake are served at the current version — the PR-5
// wire format is version 1, so old AF_UNIX clients keep working.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "svc/artifact.hpp"
#include "svc/cache.hpp"
#include "svc/scheduler.hpp"

namespace mps::svc {

/// NDJSON protocol version; bump on incompatible wire changes.
constexpr std::int64_t kProtocolVersion = 1;

/// One protocol error line: {"ok":false,"op":op,"kind":kind,"error":msg}.
/// Shared by Service and the transport loop (oversized frames), so every
/// error a client can see has the same shape.
std::string protocol_error(const std::string& op, const std::string& kind,
                           const std::string& message);

struct ServiceOptions {
  CacheOptions cache;
  SchedulerOptions sched;
};

class Service {
 public:
  explicit Service(const ServiceOptions& opts);

  /// Handle one request line (no trailing newline); always returns exactly
  /// one response line (no trailing newline), never throws.  Safe to call
  /// concurrently from any number of connection threads; a synth miss
  /// blocks the calling thread until the scheduler ran the job.
  std::string handle_line(const std::string& line);

  /// True once a {"op":"drain"} request was handled; the transport is
  /// expected to stop accepting and shut down (Server::run polls this).
  bool drain_requested() const { return drain_requested_.load(); }

  /// Stop admission and run every admitted job to completion.
  void drain() { sched_.drain(); }

  Cache& cache() { return cache_; }
  Scheduler& scheduler() { return sched_; }

 private:
  std::string handle_synth(const class Json& req);
  std::string handle_stats();

  ServiceOptions opts_;
  Cache cache_;
  Scheduler sched_;
  std::atomic<bool> drain_requested_{false};
  std::atomic<std::int64_t> synth_requests_{0};
  std::atomic<std::int64_t> cached_responses_{0};
};

}  // namespace mps::svc
