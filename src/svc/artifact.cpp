#include "svc/artifact.hpp"

#include <chrono>

#include "netlist/build.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "obs/obs.hpp"
#include "sg/state_graph.hpp"
#include "stg/writer.hpp"
#include "svc/digest.hpp"
#include "util/common.hpp"
#include "util/text.hpp"
#include "verify/verify.hpp"

namespace mps::svc {

namespace {

/// Result-affecting fields shared by both baseline methods' sub-structs.
std::string solve_fingerprint(const sat::SolveOptions& s) {
  return util::format("engine=%s;max_backtracks=%lld;solve_time_limit_s=%.17g;"
                      "restart_interval=%lld;seed=%llu",
                      sat::engine_name(s.engine), static_cast<long long>(s.max_backtracks),
                      s.time_limit_s, static_cast<long long>(s.restart_interval),
                      static_cast<unsigned long long>(s.seed));
}

std::string encode_fingerprint(const encoding::EncodeOptions& e) {
  return util::format("input_properness=%d;naive_max_m=%zu;enforce_usc=%d",
                      e.input_properness ? 1 : 0, e.naive_max_m, e.enforce_usc ? 1 : 0);
}

std::string minimize_fingerprint(const logic::MinimizeOptions& m) {
  return util::format("try_exact=%d;exact_max_vars=%zu;exact_max_primes=%zu;"
                      "exact_max_branch_nodes=%lld;heuristic_loops=%d",
                      m.try_exact ? 1 : 0, m.exact_max_vars, m.exact_max_primes,
                      static_cast<long long>(m.exact_max_branch_nodes), m.heuristic_loops);
}

std::chrono::steady_clock::time_point request_deadline(const RequestOptions& opts) {
  if (opts.deadline_s <= 0) return {};
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(opts.deadline_s));
}

Json string_array(const std::vector<std::string>& v) {
  Json arr = Json::array();
  for (const std::string& s : v) arr.push_back(s);
  return arr;
}

std::optional<std::vector<std::string>> parse_string_array(const Json* v) {
  if (v == nullptr || !v->is_array()) return std::nullopt;
  std::vector<std::string> out;
  for (const Json& item : v->items()) {
    if (!item.is_string()) return std::nullopt;
    out.push_back(item.as_string());
  }
  return out;
}

/// The netlist columns; {0,0,""} when the netlist cannot be built (mirrors
/// bench/table1's gate_counts helper).
void fill_netlist(const sg::StateGraph& g,
                  const std::vector<std::pair<std::string, logic::Cover>>& covers,
                  Artifact* a) {
  try {
    const netlist::Netlist n = netlist::build_netlist(g, covers);
    a->gates = n.num_gates();
    a->transistors = n.transistor_estimate();
    a->verilog = netlist::write_verilog(n);
  } catch (const util::Error&) {
    a->gates = a->transistors = 0;
    a->verilog.clear();
  }
}

void fill_common(const sg::StateGraph& final_graph,
                 const std::vector<std::pair<std::string, logic::Cover>>& covers,
                 Artifact* a) {
  for (sg::SignalId s = 0; s < final_graph.num_signals(); ++s) {
    a->signal_names.push_back(final_graph.signal(s).name);
    if (s >= a->initial_signals) a->inserted_signals.push_back(final_graph.signal(s).name);
  }
  for (const auto& [output, cover] : covers) {
    std::vector<std::string> cubes;
    cubes.reserve(cover.size());
    for (const logic::Cube& c : cover.cubes()) cubes.push_back(c.to_string());
    a->covers.emplace_back(output, std::move(cubes));
  }
  const auto report = verify::verify_synthesis(final_graph, covers);
  a->verify_ok = report.ok();
  a->verify_issues = report.issues;
  fill_netlist(final_graph, covers, a);
}

/// Copy one method's result into the artifact; the three result structs
/// share these fields (only the baselines report hit_limit).  The final
/// graph moves out only when the caller asked for it.
template <typename Result>
void take_result(Result r, Artifact* a, sg::StateGraph* final_graph) {
  a->success = r.success;
  if constexpr (requires { r.hit_limit; }) a->hit_limit = r.hit_limit;
  a->failure_reason = r.failure_reason;
  a->initial_states = r.initial_states;
  a->initial_signals = r.initial_signals;
  a->final_states = r.final_states;
  a->final_signals = r.final_signals;
  a->literals = r.total_literals;
  a->solver = r.solver_totals;
  a->seconds = r.seconds;
  if (r.success) fill_common(r.final_graph, r.covers, a);
  if (final_graph != nullptr) *final_graph = std::move(r.final_graph);
}

}  // namespace

RequestOptions default_request_options(const std::string& method) {
  RequestOptions opts;
  opts.method = method;
  // The examples/mps_synth per-method limits; mps_synth and the daemon
  // both run requests built by this function through run_synthesis.
  opts.direct.solve.max_backtracks = 5'000'000;
  opts.direct.solve.time_limit_s = 120.0;
  opts.lavagno.time_limit_s = 300.0;
  return opts;
}

void set_engine(RequestOptions* opts, sat::Engine engine) {
  opts->modular.sat.solve.engine = engine;
  opts->direct.solve.engine = engine;
  opts->lavagno.solve.engine = engine;
}

std::string request_fingerprint(const RequestOptions& opts) {
  std::string fp =
      util::format("req-v1;method=%s;deadline_s=%.17g;", opts.method.c_str(), opts.deadline_s);
  if (opts.method == "modular") {
    fp += core::options_fingerprint(opts.modular);
  } else if (opts.method == "direct") {
    const auto& d = opts.direct;
    fp += "direct-v2;" + encode_fingerprint(d.encode) + ";" + solve_fingerprint(d.solve) +
          ";" + minimize_fingerprint(d.minimize) + ";" +
          util::format("max_new_signals=%zu;max_rounds=%d;derive_logic=%d",
                       d.max_new_signals, d.max_rounds, d.derive_logic ? 1 : 0);
  } else if (opts.method == "lavagno") {
    const auto& l = opts.lavagno;
    fp += "lavagno-v2;" + solve_fingerprint(l.solve) + ";" + minimize_fingerprint(l.minimize) +
          ";" + encode_fingerprint(l.encode) + ";" +
          util::format("max_insertions=%d;max_signals_per_class=%zu;time_limit_s=%.17g;"
                       "derive_logic=%d",
                       l.max_insertions, l.max_signals_per_class, l.time_limit_s,
                       l.derive_logic ? 1 : 0);
  } else {
    throw util::Error("unknown synthesis method: " + opts.method);
  }
  return fp;
}

std::string request_digest(const stg::Stg& spec, const RequestOptions& opts) {
  Sha256 h;
  h.update(stg::write_g_canonical(spec));
  h.update(std::string_view("\x00", 1));  // unambiguous segment separator
  h.update(request_fingerprint(opts));
  h.update(std::string_view("\x00", 1));
  h.update("artifact-v" + std::to_string(Artifact::kVersion));
  return h.hex_digest();
}

Artifact run_synthesis(const stg::Stg& spec, const RequestOptions& opts,
                       sg::StateGraph* final_graph) {
  obs::Span span("svc.synth", spec.name());
  Artifact a;
  a.name = spec.name();
  a.method = opts.method;

  const sg::StateGraph g = sg::StateGraph::from_stg(spec);
  const auto deadline = request_deadline(opts);

  if (opts.method == "modular") {
    core::SynthesisOptions mopts = opts.modular;
    mopts.deadline = deadline;
    take_result(core::modular_synthesis(g, mopts), &a, final_graph);
  } else if (opts.method == "direct") {
    baseline::DirectOptions vopts = opts.direct;
    vopts.solve.deadline = deadline;
    take_result(baseline::direct_synthesis(g, vopts), &a, final_graph);
  } else if (opts.method == "lavagno") {
    baseline::LavagnoOptions lopts = opts.lavagno;
    lopts.solve.deadline = deadline;
    take_result(baseline::lavagno_synthesis(g, lopts), &a, final_graph);
  } else {
    throw util::Error("unknown synthesis method: " + opts.method);
  }

  span.arg("success", a.success ? 1 : 0);
  span.arg("final_states", static_cast<std::int64_t>(a.final_states));
  return a;
}

Json Artifact::to_json() const {
  Json j = Json::object();
  j.set("artifact_version", Json(kVersion));
  j.set("name", name);
  j.set("method", method);
  j.set("success", Json(success));
  j.set("hit_limit", Json(hit_limit));
  j.set("failure_reason", failure_reason);
  j.set("initial_states", initial_states);
  j.set("initial_signals", initial_signals);
  j.set("final_states", final_states);
  j.set("final_signals", final_signals);
  j.set("literals", literals);
  j.set("signal_names", string_array(signal_names));
  j.set("inserted_signals", string_array(inserted_signals));
  Json cover_arr = Json::array();
  for (const auto& [output, cubes] : covers) {
    Json entry = Json::object();
    entry.set("output", output);
    entry.set("cubes", string_array(cubes));
    cover_arr.push_back(std::move(entry));
  }
  j.set("covers", std::move(cover_arr));
  j.set("verilog", verilog);
  j.set("gates", gates);
  j.set("transistors", transistors);
  j.set("verify_ok", Json(verify_ok));
  j.set("verify_issues", string_array(verify_issues));
  Json solver_obj = Json::object();
  solver_obj.set("decisions", Json(solver.decisions));
  solver_obj.set("propagations", Json(solver.propagations));
  solver_obj.set("conflicts", Json(solver.conflicts));
  solver_obj.set("restarts", Json(solver.restarts));
  solver_obj.set("learned", Json(solver.learned));
  j.set("solver", std::move(solver_obj));
  j.set("seconds", Json(seconds));
  return j;
}

std::optional<Artifact> Artifact::deserialize(const std::string& text) {
  Json j;
  try {
    j = Json::parse(text);
  } catch (const util::Error&) {
    return std::nullopt;
  }
  if (!j.is_object() || j.get_int("artifact_version", -1) != kVersion) return std::nullopt;

  Artifact a;
  a.name = j.get_string("name", "");
  a.method = j.get_string("method", "");
  a.success = j.get_bool("success", false);
  a.hit_limit = j.get_bool("hit_limit", false);
  a.failure_reason = j.get_string("failure_reason", "");
  a.initial_states = static_cast<std::size_t>(j.get_int("initial_states", 0));
  a.initial_signals = static_cast<std::size_t>(j.get_int("initial_signals", 0));
  a.final_states = static_cast<std::size_t>(j.get_int("final_states", 0));
  a.final_signals = static_cast<std::size_t>(j.get_int("final_signals", 0));
  a.literals = static_cast<std::size_t>(j.get_int("literals", 0));

  auto names = parse_string_array(j.find("signal_names"));
  auto inserted = parse_string_array(j.find("inserted_signals"));
  auto issues = parse_string_array(j.find("verify_issues"));
  if (!names.has_value() || !inserted.has_value() || !issues.has_value()) {
    return std::nullopt;
  }
  a.signal_names = std::move(*names);
  a.inserted_signals = std::move(*inserted);
  a.verify_issues = std::move(*issues);

  const Json* cover_arr = j.find("covers");
  if (cover_arr == nullptr || !cover_arr->is_array()) return std::nullopt;
  for (const Json& entry : cover_arr->items()) {
    if (!entry.is_object()) return std::nullopt;
    auto cubes = parse_string_array(entry.find("cubes"));
    if (!cubes.has_value()) return std::nullopt;
    a.covers.emplace_back(entry.get_string("output", ""), std::move(*cubes));
  }

  a.verilog = j.get_string("verilog", "");
  a.gates = static_cast<std::size_t>(j.get_int("gates", 0));
  a.transistors = static_cast<std::size_t>(j.get_int("transistors", 0));
  a.verify_ok = j.get_bool("verify_ok", false);
  if (const Json* solver_obj = j.find("solver"); solver_obj != nullptr) {
    a.solver.decisions = solver_obj->get_int("decisions", 0);
    a.solver.propagations = solver_obj->get_int("propagations", 0);
    a.solver.conflicts = solver_obj->get_int("conflicts", 0);
    a.solver.restarts = solver_obj->get_int("restarts", 0);
    a.solver.learned = solver_obj->get_int("learned", 0);
  }
  a.seconds = j.get_double("seconds", 0.0);
  return a;
}

std::vector<std::pair<std::string, logic::Cover>> Artifact::rebuild_covers() const {
  std::vector<std::pair<std::string, logic::Cover>> out;
  for (const auto& [output, cubes] : covers) {
    logic::Cover cover(signal_names.size());
    for (const std::string& pattern : cubes) cover.add(logic::Cube::from_string(pattern));
    out.emplace_back(output, std::move(cover));
  }
  return out;
}

}  // namespace mps::svc
