// mps_client: blocking client for the mps_serve daemon.
//
//   mps_client --socket PATH | --connect HOST:PORT|PATH
//              synth FILE.g [--method modular|direct|lavagno]
//              [--engine dpll|cdcl] [--deadline SECONDS] [--timeout-s S]
//              [--retries N] [--out-pla <prefix>] [--out-verilog <file>] [--quiet]
//   mps_client (--socket PATH | --connect TARGET) ping|stats|drain
//
// --timeout-s bounds both the connect and every response wait: a dead or
// hung server yields a clean error + exit 1 instead of blocking forever.
// --retries N retries a refused connect with bounded backoff (a daemon
// that is restarting).  --deadline and --timeout-s take finite seconds;
// inf and nan are usage errors.
//
// `synth` prints the same report mps_synth prints for the same spec and
// method — identical except the seconds field, which is the daemon's
// measurement of the original (cold) synthesis rather than a local timer.
// PLA and Verilog outputs are byte-identical to mps_synth's (verified by
// tests/check_protocol.cmake).  ping/stats/drain print the raw JSON
// response line.
//
// Exit codes mirror mps_synth: 2 usage, 1 synthesis/verification failure
// or daemon error, 0 success.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "mps.hpp"

namespace {

using namespace mps;

int usage() {
  std::fprintf(stderr,
               "usage: mps_client (--socket PATH | --connect HOST:PORT|PATH) synth FILE.g\n"
               "                  [--method modular|direct|lavagno] [--engine dpll|cdcl]\n"
               "                  [--deadline SECONDS] [--timeout-s S] [--retries N]\n"
               "                  [--out-pla <prefix>] [--out-verilog <file>] [--quiet]\n"
               "       mps_client (--socket PATH | --connect TARGET) ping|stats|drain\n");
  return 2;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw util::Error("cannot open " + path + " for writing");
  out << text;
  std::printf("wrote %s\n", path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::Error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  std::string op;
  svc::ClientOptions copts;
  std::string spec_path;
  std::string method = "modular";
  std::string engine;
  std::string pla_prefix;
  std::string verilog_path;
  double deadline_s = 0.0;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--socket" || arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return usage();
      target = arg == "--socket" ? "unix:" + std::string(v) : std::string(v);
    } else if (arg == "--timeout-s") {
      const char* v = next();
      if (v == nullptr) return usage();
      char* end = nullptr;
      const double s = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(s) || s <= 0) {
        std::fprintf(stderr, "error: --timeout-s expects positive seconds, got '%s'\n", v);
        return 2;
      }
      copts.connect_timeout_s = s;
      copts.io_timeout_s = s;
    } else if (arg == "--retries") {
      const char* v = next();
      if (v == nullptr) return usage();
      const auto n = util::parse_int(v, 0, 100);
      if (!n.has_value()) {
        std::fprintf(stderr, "error: --retries expects an integer in 0..100, got '%s'\n", v);
        return 2;
      }
      copts.connect_attempts = 1 + static_cast<int>(*n);
    } else if (arg == "--method") {
      const char* v = next();
      if (v == nullptr) return usage();
      method = v;
    } else if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (!sat::engine_from_name(v).has_value()) {
        std::fprintf(stderr, "error: unknown --engine: '%s' (expected dpll|cdcl)\n", v);
        return 2;
      }
      engine = v;
    } else if (arg == "--deadline") {
      const char* v = next();
      if (v == nullptr) return usage();
      char* end = nullptr;
      deadline_s = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(deadline_s) || deadline_s < 0) {
        std::fprintf(stderr, "error: --deadline expects seconds, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--out-pla") {
      const char* v = next();
      if (v == nullptr) return usage();
      pla_prefix = v;
    } else if (arg == "--out-verilog") {
      const char* v = next();
      if (v == nullptr) return usage();
      verilog_path = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag: %s\n", arg.c_str());
      return usage();
    } else if (op.empty()) {
      op = arg;
    } else if (op == "synth" && spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage();
    }
  }
  if (target.empty() || op.empty()) return usage();

  try {
    svc::Client client(target, copts);

    if (op == "ping" || op == "stats" || op == "drain") {
      svc::Json req = svc::Json::object();
      req.set("op", op);
      const svc::Json resp = client.request(req);
      std::printf("%s\n", resp.dump().c_str());
      return resp.get_bool("ok", false) ? 0 : 1;
    }
    if (op != "synth") {
      std::fprintf(stderr, "error: unknown op: %s\n", op.c_str());
      return usage();
    }
    if (spec_path.empty()) {
      std::fprintf(stderr, "error: synth requires a FILE.g argument\n");
      return usage();
    }

    const std::string g_text = read_file(spec_path);
    // Parse locally too: the header line reports sizes, and a malformed
    // spec is diagnosed with the same message a local run would print.
    const stg::Stg spec = stg::parse_g(g_text);
    if (!quiet) {
      std::printf("%s: %zu signals, %zu transitions, method=%s\n", spec.name().c_str(),
                  spec.num_signals(), spec.net().num_transitions(), method.c_str());
    }

    const svc::Json resp = client.synth(g_text, method, deadline_s, engine);
    if (!resp.get_bool("ok", false)) {
      std::fprintf(stderr, "error: daemon: [%s] %s\n", resp.get_string("kind", "?").c_str(),
                   resp.get_string("error", "unknown error").c_str());
      return 1;
    }
    const svc::Json* artifact_json = resp.find("artifact");
    if (artifact_json == nullptr) {
      std::fprintf(stderr, "error: daemon response has no artifact\n");
      return 1;
    }
    const auto artifact = svc::Artifact::deserialize(artifact_json->dump());
    if (!artifact.has_value()) {
      std::fprintf(stderr, "error: cannot decode artifact (version mismatch?)\n");
      return 1;
    }
    const svc::Artifact& a = *artifact;

    if (!a.success) {
      std::fprintf(stderr, "error: synthesis failed: %s\n", a.failure_reason.c_str());
      return 1;
    }
    std::printf("%s: ok, %zu -> %zu states, %zu -> %zu signals, %zu literals, %.3fs, "
                "verification %s\n",
                a.name.c_str(), a.initial_states, a.final_states, a.initial_signals,
                a.final_signals, a.literals, a.seconds, a.verify_ok ? "passed" : "FAILED");
    if (!a.verify_ok) {
      for (const auto& issue : a.verify_issues) std::printf("  issue: %s\n", issue.c_str());
    }

    if (!pla_prefix.empty()) {
      const auto covers = a.rebuild_covers();
      for (const auto& [name, cover] : covers) {
        write_file(pla_prefix + name + ".pla", logic::write_pla(cover, a.signal_names));
      }
    }
    if (!verilog_path.empty()) {
      write_file(verilog_path, a.verilog);
    }
    return a.verify_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
