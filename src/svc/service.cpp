#include "svc/service.hpp"

#include <cmath>
#include <optional>

#include "obs/obs.hpp"
#include "stg/parser.hpp"
#include "svc/artifact.hpp"
#include "svc/json.hpp"
#include "util/common.hpp"
#include "util/text.hpp"

namespace mps::svc {

std::string protocol_error(const std::string& op, const std::string& kind,
                           const std::string& message) {
  Json j = Json::object();
  j.set("ok", Json(false));
  j.set("op", op);
  j.set("kind", kind);
  j.set("error", message);
  return j.dump();
}

namespace {

/// A validated synth request: the parsed spec, the full request options and
/// the cache digest.
struct SynthRequest {
  stg::Stg spec;
  RequestOptions options;
  std::string digest;
};

/// The one place the wire fields (g/method/engine/threads/deadline_s) are
/// interpreted.  On failure returns nullopt and sets *error_line to the
/// exact response to send.
std::optional<SynthRequest> parse_synth_request(const Json& req, std::string* error_line) {
  const Json* g_text = req.find("g");
  if (g_text == nullptr || !g_text->is_string()) {
    *error_line = protocol_error("synth", "bad_request", "missing string field 'g'");
    return std::nullopt;
  }
  const std::string method = req.get_string("method", "modular");
  if (method != "modular" && method != "direct" && method != "lavagno") {
    *error_line = protocol_error(
        "synth", "bad_request",
        "unknown method: '" + method + "' (expected modular|direct|lavagno)");
    return std::nullopt;
  }
  const std::string engine_str = req.get_string("engine", "dpll");
  const auto engine = sat::engine_from_name(engine_str);
  if (!engine.has_value()) {
    *error_line = protocol_error(
        "synth", "bad_request", "unknown engine: '" + engine_str + "' (expected dpll|cdcl)");
    return std::nullopt;
  }
  // Range-check the numbers: a deadline_s past util::Deadline::max_seconds()
  // is a bad request, not a silently unlimited budget.  "threads" is
  // a protocol-v1 field that synthesis does not read; it is still checked
  // so every client keeps getting the same answers.
  const Json* threads = req.find("threads");
  const double n = threads == nullptr ? 1.0 : threads->is_number() ? threads->as_double() : -1.0;
  if (!(n >= 0 && n <= 65536 && n == std::floor(n))) {
    *error_line = protocol_error("synth", "bad_request",
                                 "threads must be an integer in 0..65536");
    return std::nullopt;
  }
  const Json* deadline = req.find("deadline_s");
  const double d = deadline == nullptr ? 0.0 : deadline->is_number() ? deadline->as_double() : -1.0;
  if (!(d >= 0 && d <= util::Deadline::max_seconds())) {
    *error_line = protocol_error("synth", "bad_request",
                                 util::format("deadline_s must be finite seconds in 0..%.3g",
                                              util::Deadline::max_seconds()));
    return std::nullopt;
  }

  SynthRequest out;
  try {
    out.spec = stg::parse_g(g_text->as_string());
  } catch (const util::Error& e) {
    *error_line = protocol_error("synth", "parse", e.what());
    return std::nullopt;
  }
  out.options = default_request_options(method);
  out.options.deadline_s = d;
  set_engine(&out.options, *engine);
  out.digest = request_digest(out.spec, out.options);
  return out;
}

Json scheduler_stats_json(const SchedulerStats& s, std::size_t queue_cap) {
  Json j = Json::object();
  j.set("submitted", Json(s.submitted));
  j.set("joined", Json(s.joined));
  j.set("rejected", Json(s.rejected));
  j.set("completed", Json(s.completed));
  j.set("queue_depth", Json(s.queue_depth));
  j.set("running", Json(s.running));
  j.set("queue_cap", queue_cap);
  return j;
}

Json cache_stats_json(const CacheStats& s) {
  Json j = Json::object();
  j.set("mem_hits", Json(s.mem_hits));
  j.set("disk_hits", Json(s.disk_hits));
  j.set("misses", Json(s.misses));
  j.set("puts", Json(s.puts));
  j.set("evictions", Json(s.evictions));
  j.set("corrupt", Json(s.corrupt));
  j.set("entries_mem", Json(s.entries_mem));
  return j;
}

}  // namespace

Service::Service(const ServiceOptions& opts)
    : opts_(opts), cache_(opts.cache), sched_(opts.sched) {}

std::string Service::handle_line(const std::string& line) {
  obs::Span span("svc.request");
  obs::counter_add("svc.requests", 1);
  Json req;
  try {
    req = Json::parse(line);
  } catch (const util::Error& e) {
    return protocol_error("", "bad_request", e.what());
  }
  if (!req.is_object()) return protocol_error("", "bad_request", "request must be an object");
  const std::string op = req.get_string("op", "");

  try {
    if (op == "ping") {
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("op", "ping");
      return j.dump();
    }
    if (op == "version") {
      const std::int64_t asked = req.get_int("protocol", kProtocolVersion);
      if (asked != kProtocolVersion) {
        Json j = Json::parse(protocol_error(
            "version", "version",
            util::format("protocol mismatch: client %lld, server %lld",
                         static_cast<long long>(asked),
                         static_cast<long long>(kProtocolVersion))));
        j.set("protocol", Json(kProtocolVersion));
        return j.dump();
      }
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("op", "version");
      j.set("protocol", Json(kProtocolVersion));
      return j.dump();
    }
    if (op == "synth") return handle_synth(req);
    if (op == "stats") return handle_stats();
    if (op == "drain") {
      drain_requested_.store(true);
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("op", "drain");
      return j.dump();
    }
    return protocol_error(op, "bad_request", "unknown op: '" + op + "'");
  } catch (const std::exception& e) {
    return protocol_error(op, "internal", e.what());
  }
}

std::string Service::handle_synth(const Json& req) {
  obs::Span span("svc.synth_request");
  synth_requests_.fetch_add(1);

  std::string error_line;
  auto parsed = parse_synth_request(req, &error_line);
  if (!parsed.has_value()) return error_line;
  const stg::Stg& spec = parsed->spec;
  const RequestOptions& ropts = parsed->options;
  const std::string& digest = parsed->digest;

  auto respond = [&](const std::string& payload, bool cached) -> std::string {
    Json artifact;
    try {
      artifact = Json::parse(payload);
    } catch (const util::Error& e) {
      return protocol_error("synth", "internal",
                            std::string("artifact serialization: ") + e.what());
    }
    if (cached) cached_responses_.fetch_add(1);
    Json j = Json::object();
    j.set("ok", Json(true));
    j.set("op", "synth");
    j.set("cached", Json(cached));
    j.set("digest", digest);
    j.set("artifact", std::move(artifact));
    return j.dump();
  };

  if (auto payload = cache_.get(digest); payload.has_value()) {
    return respond(*payload, /*cached=*/true);
  }

  auto [admit, ticket] = sched_.submit(digest, [this, spec, ropts, digest] {
    Scheduler::Result result;
    result.payload = run_synthesis(spec, ropts).serialize();
    cache_.put(digest, result.payload);
    return result;
  });
  if (admit == Scheduler::Admit::Overloaded) {
    return protocol_error("synth", "overloaded",
                          "queue full or draining; retry later");
  }
  const Scheduler::Result& result = ticket.wait();
  if (!result.ok()) return protocol_error("synth", "internal", result.error);
  return respond(result.payload, /*cached=*/false);
}

std::string Service::handle_stats() {
  Json j = Json::object();
  j.set("ok", Json(true));
  j.set("op", "stats");
  j.set("cache", cache_stats_json(cache_.stats()));
  j.set("scheduler", scheduler_stats_json(sched_.stats(), opts_.sched.queue_cap));
  j.set("synth_requests", Json(synth_requests_.load()));
  j.set("cached_responses", Json(cached_responses_.load()));
  Json counters = Json::object();
  for (const char* name : {"svc.requests", "net.accepted", "net.requests", "net.oversized",
                           "net.frame_timeout"}) {
    counters.set(name, Json(obs::counter_value(name)));
  }
  j.set("counters", std::move(counters));
  return j.dump();
}

}  // namespace mps::svc
