// mps_serve: the synthesis daemon — svc::Server behind a CLI.
//
//   mps_serve --socket PATH | --listen HOST:PORT|PATH
//             [--threads N] [--cache-dir DIR] [--queue-cap K]
//             [--mem-entries M] [--backlog N] [--max-request-bytes B]
//             [--trace FILE]
//
// Speaks newline-delimited JSON over a Unix domain socket (--socket) or TCP
// (--listen host:port; port 0 binds a kernel-assigned port, reported on the
// "listening on" line).  One request object per line, one response per
// line; see src/svc/service.hpp and DESIGN.md §10–11 for the grammar.
// Ops: ping, version, synth, stats, drain.
//
// Shutdown: SIGTERM/SIGINT or a {"op":"drain"} request triggers a graceful
// drain — stop accepting, answer everything already admitted, exit 0.
//
// --trace FILE enables the obs layer and writes a Chrome trace on exit.
// It is off by default: a long-lived daemon would otherwise accumulate
// span events without bound.
#include <cstdio>
#include <string>

#include "mps.hpp"

namespace {

using namespace mps;

int usage() {
  std::fprintf(stderr,
               "usage: mps_serve --socket PATH | --listen HOST:PORT|PATH\n"
               "                 [--threads N] [--cache-dir DIR] [--queue-cap K]\n"
               "                 [--mem-entries M] [--backlog N] [--max-request-bytes B]\n"
               "                 [--trace FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  svc::ServerOptions opts;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage();
      opts.listen = "unix:" + std::string(v);
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return usage();
      opts.listen = v;
    } else if (arg == "--backlog") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto n = util::parse_int(v, 1, 1 << 16);
      if (!n.has_value()) {
        std::fprintf(stderr, "error: --backlog expects an integer in 1..65536, got '%s'\n", v);
        return 2;
      }
      opts.backlog = static_cast<int>(*n);
    } else if (arg == "--max-request-bytes") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto n = util::parse_int(v, 1, 1ll << 32);
      if (!n.has_value()) {
        std::fprintf(stderr,
                     "error: --max-request-bytes expects a positive integer, got '%s'\n", v);
        return 2;
      }
      opts.max_line_bytes = static_cast<std::size_t>(*n);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto n = util::parse_int(v, 1, 1 << 10);
      if (!n.has_value()) {
        std::fprintf(stderr, "error: --threads expects an integer in 1..1024, got '%s'\n", v);
        return 2;
      }
      opts.service.sched.num_threads = static_cast<unsigned>(*n);
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return usage();
      opts.service.cache.dir = v;
    } else if (arg == "--queue-cap") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto n = util::parse_int(v, 1, 1 << 20);
      if (!n.has_value()) {
        std::fprintf(stderr, "error: --queue-cap expects a positive integer, got '%s'\n", v);
        return 2;
      }
      opts.service.sched.queue_cap = static_cast<std::size_t>(*n);
    } else if (arg == "--mem-entries") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto n = util::parse_int(v, 0, 1 << 20);
      if (!n.has_value()) {
        std::fprintf(stderr, "error: --mem-entries expects a non-negative integer, got '%s'\n",
                     v);
        return 2;
      }
      opts.service.cache.mem_entries = static_cast<std::size_t>(*n);
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_path = v;
    } else {
      std::fprintf(stderr, "error: unknown flag: %s\n", arg.c_str());
      return usage();
    }
  }
  if (opts.listen.empty()) {
    std::fprintf(stderr, "error: --socket PATH or --listen HOST:PORT is required\n");
    return usage();
  }

  if (!trace_path.empty()) {
    obs::set_enabled(true);
    obs::set_thread_name("accept");
  }

  try {
    svc::Server server(opts);
    server.start();
    server.install_signal_handlers();
    std::printf("mps_serve: listening on %s (threads=%u, queue-cap=%zu, cache=%s)\n",
                server.bound_endpoint().str().c_str(), server.service().scheduler().num_threads(),
                opts.service.sched.queue_cap,
                opts.service.cache.dir.empty() ? "<memory only>"
                                               : opts.service.cache.dir.c_str());
    std::fflush(stdout);  // let wrappers wait for the "listening" line
    server.run();
    std::printf("mps_serve: drained, exiting\n");
    if (!trace_path.empty()) {
      obs::write_chrome_trace(trace_path);
      std::printf("wrote %s\n", trace_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
