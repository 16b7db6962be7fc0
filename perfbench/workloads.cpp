// The four workloads (README.md says why each was chosen):
//
//   table1-full  the 23 Table-1 specs, modular method, svc::run_synthesis
//   encode-gen   CSC resolution only (core::modular_synthesis, no logic) on
//                generated specs larger than Table 1
//   baselines    the 23 specs through direct and lavagno, CDCL engine
//   csc-scale    CSC verdicts on generated pipelines, explicit and symbolic
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "baseline/lavagno.hpp"
#include "baseline/vanbekbergen.hpp"
#include "bdd/symbolic.hpp"
#include "bench.hpp"
#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "core/input_set.hpp"
#include "core/module_graph.hpp"
#include "core/partition_sat.hpp"
#include "core/synthesis.hpp"
#include "logic/extract.hpp"
#include "logic/minimize.hpp"
#include "netlist/build.hpp"
#include "netlist/verilog.hpp"
#include "netlist/verify_si.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "sg/projection.hpp"
#include "svc/artifact.hpp"
#include "svc/json.hpp"
#include "util/common.hpp"
#include "util/text.hpp"
#include "verify/verify.hpp"

namespace perfbench {

namespace {

using Covers = std::vector<std::pair<std::string, logic::Cover>>;
using CoverStrings = std::vector<std::pair<std::string, std::vector<std::string>>>;

// ---------------------------------------------------------------------------
// Checks shared by the synthesis workloads.
// ---------------------------------------------------------------------------

/// Reference rows of a bench/table1 --json report, keyed "<bench>/<method>".
std::map<std::string, Expected> load_reference(const std::string& path,
                                               const std::vector<std::string>& methods) {
  std::ifstream in(path);
  if (!in) throw util::Error("cannot read the reference report " + path);
  std::stringstream text;
  text << in.rdbuf();
  const svc::Json report = svc::Json::parse(text.str());
  const svc::Json* rows = report.find("rows");
  if (rows == nullptr || !rows->is_array()) throw util::Error(path + " has no rows");
  std::map<std::string, Expected> out;
  for (const svc::Json& r : rows->items()) {
    const std::string method = r.get_string("method", "");
    if (std::find(methods.begin(), methods.end(), method) == methods.end()) continue;
    if (r.get_string("outcome", "") != "ok") continue;
    Expected e;
    e.states = static_cast<std::size_t>(r.get_int("states", 0));
    e.signals = static_cast<std::size_t>(r.get_int("signals", 0));
    e.literals = static_cast<std::size_t>(r.get_int("literals", 0));
    e.gates = static_cast<std::size_t>(r.get_int("gates", 0));
    e.transistors = static_cast<std::size_t>(r.get_int("transistors", 0));
    e.decisions = r.get_int("decisions", 0);
    e.propagations = r.get_int("propagations", 0);
    e.conflicts = r.get_int("conflicts", 0);
    e.restarts = r.get_int("restarts", 0);
    e.learned = r.get_int("learned", 0);
    out[r.get_string("bench", "") + "/" + method] = e;
  }
  return out;
}

/// What a synthesis operation produced, in either form.
struct Quality {
  bool success = false, hit_limit = false;
  std::string failure_reason;
  std::size_t initial_states = 0, initial_signals = 0, final_states = 0, final_signals = 0;
  std::size_t literals = 0, gates = 0, transistors = 0;
  sat::SolverTotals solver;
  CoverStrings covers;
  bool verify_ok = false;
  std::vector<std::string> verify_issues;
};

CoverStrings cover_strings(const Covers& covers) {
  CoverStrings out;
  for (const auto& [output, cover] : covers) {
    std::vector<std::string> cubes;
    for (const logic::Cube& c : cover.cubes()) cubes.push_back(c.to_string());
    out.emplace_back(output, std::move(cubes));
  }
  return out;
}

std::string signature(const Quality& q) {
  std::string covers;
  for (const auto& [output, cubes] : q.covers) {
    covers += output + ":";
    for (const std::string& c : cubes) covers += c + ",";
  }
  return util::format(
      "states=%zu signals=%zu literals=%zu gates=%zu transistors=%zu decisions=%lld "
      "propagations=%lld conflicts=%lld covers=%016zx",
      q.final_states, q.final_signals, q.literals, q.gates, q.transistors,
      static_cast<long long>(q.solver.decisions), static_cast<long long>(q.solver.propagations),
      static_cast<long long>(q.solver.conflicts), std::hash<std::string>{}(covers));
}

/// alex-nonfc contains an arbiter (output choice), so its specification
/// cannot be strictly semi-modular (EXPERIMENTS.md, Claim 1).  Those
/// spec-level findings are its only accepted issues; the gate-level
/// verdict ("circuit: ..." issues) must still pass.
bool arbiter_issues_only(const std::string& input, const std::vector<std::string>& issues) {
  if (input != "alex-nonfc" || issues.empty()) return false;
  for (const std::string& s : issues) {
    if (s.rfind("circuit:", 0) == 0 || s.find(" disabled entering state ") == std::string::npos) {
      return false;
    }
  }
  return true;
}

/// Fill the outcome from `q` and record every deviation as a problem.
void check_synthesis(const Op& op, const Quality& q, const std::string& budget, Outcome* o) {
  o->signals = q.initial_signals;
  o->initial_states = static_cast<double>(q.initial_states);
  o->final_states = static_cast<double>(q.final_states);
  o->literals = q.literals;
  o->transistors = q.transistors;
  o->signature = signature(q);
  if (!q.success) {
    o->problems.push_back("synthesis failed: " + q.failure_reason +
                          (q.hit_limit ? " (budget tripped: " + budget + ")" : ""));
    return;
  }
  o->inserted = q.final_signals - q.initial_signals;
  if (!q.verify_ok && !arbiter_issues_only(op.input, q.verify_issues)) {
    o->problems.push_back(util::format("verification failed (%zu issues), first: %s",
                                       q.verify_issues.size(),
                                       q.verify_issues.empty() ? "-" : q.verify_issues[0].c_str()));
  }
  if (q.gates == 0) o->problems.push_back("no netlist was built");
  if (!op.expect.has_value()) {
    o->problems.push_back("no reference row");
    return;
  }
  const Expected& e = *op.expect;
  auto same = [&](const char* what, long long got, long long want) {
    if (got != want) {
      o->problems.push_back(util::format("%s %lld differs from the reference %lld", what, got, want));
    }
  };
  same("states", static_cast<long long>(q.final_states), static_cast<long long>(e.states));
  same("signals", static_cast<long long>(q.final_signals), static_cast<long long>(e.signals));
  same("literals", static_cast<long long>(q.literals), static_cast<long long>(e.literals));
  same("gates", static_cast<long long>(q.gates), static_cast<long long>(e.gates));
  same("transistors", static_cast<long long>(q.transistors), static_cast<long long>(e.transistors));
  // Solver effort: a clock-based budget that fires changes it even when the
  // circuit happens to come out the same.
  same("decisions", q.solver.decisions, e.decisions);
  same("propagations", q.solver.propagations, e.propagations);
  same("conflicts", q.solver.conflicts, e.conflicts);
  same("restarts", q.solver.restarts, e.restarts);
  same("learned", q.solver.learned, e.learned);
}

bool has_silent_edges(const sg::StateGraph& g) {
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (const sg::Edge& e : g.out(s)) {
      if (e.is_silent()) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Traced building blocks.
// ---------------------------------------------------------------------------

/// The insertion result of any method, with logic derivation off.
struct Insertion {
  bool success = false, hit_limit = false;
  std::string failure_reason;
  std::size_t initial_states = 0, initial_signals = 0, final_states = 0, final_signals = 0;
  sg::StateGraph final_graph;
  sat::SolverTotals solver;
  std::vector<core::FormulaStat> formulas;  ///< the formulas whose results the flow used
};

Insertion modular_insertion(const sg::StateGraph& g, core::SynthesisOptions opts, Tracer& tr) {
  opts.derive_logic = false;
  core::SynthesisResult r =
      tr.time("core.insert", [&] { return core::modular_synthesis(g, opts); });
  Insertion ins{r.success,          false,           r.failure_reason,   r.initial_states,
                r.initial_signals,  r.final_states,  r.final_signals,    std::move(r.final_graph),
                r.solver_totals,    {}};
  for (const core::ModuleReport& m : r.modules) {
    tr.add("core.module_s", m.seconds);
    if (m.output.rfind("(rescue", 0) != 0) tr.add("core.modules_adopted", 1);
    ins.formulas.insert(ins.formulas.end(), m.formulas.begin(), m.formulas.end());
  }
  return ins;
}

/// Per non-input signal: extract, then both minimizers; the pick follows
/// logic::minimize (exact only when strictly fewer literals), which the
/// untraced form ran — the covers must come out identical.
Covers derive_logic(const sg::StateGraph& g, const logic::MinimizeOptions& opts, Tracer& tr) {
  Covers covers;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (g.is_input(s)) continue;
    const logic::SopSpec spec =
        tr.time("logic.extract", [&] { return logic::extract_next_state(g, s); });
    tr.add("logic.on_minterms", static_cast<double>(spec.on.size()));
    tr.add("logic.off_minterms", static_cast<double>(spec.off.size()));
    logic::Cover pick = tr.time("logic.heuristic", [&] {
      return logic::heuristic_minimize(spec, opts.heuristic_loops);
    });
    if (opts.try_exact) {
      tr.add("logic.exact_attempts", 1);
      const std::optional<logic::Cover> exact =
          tr.time("logic.exact", [&] { return logic::exact_minimize(spec, opts); });
      if (exact.has_value()) {
        tr.add("logic.exact_finished", 1);
        if (exact->literal_count() < pick.literal_count()) {
          tr.add("logic.exact_won", 1);
          pick = *exact;
        }
      }
    }
    tr.add("logic.cubes", static_cast<double>(pick.size()));
    covers.emplace_back(g.signal(s).name, std::move(pick));
  }
  return covers;
}

/// Serial replay of core::modular_synthesis's insertion rounds through the
/// core layer's public calls, timing the phases the one-call form hides:
/// input set, projection, module SAT, propagate and expansion.  Serial order
/// is the flow's reference semantics (any thread count gives the same
/// result), so the replay must reach the same final graph.  A round that
/// needs the complete-graph rescue path has no public entry point; the
/// replay stops there and is counted in core.replay_incomplete.
void replay_insertion(const sg::StateGraph& input, const core::SynthesisOptions& opts,
                      const Insertion& ins, Tracer& tr, Outcome* o) {
  tr.time("core.replay", [&] {
    sg::StateGraph g = has_silent_edges(input) ? sg::contract_silent(input) : input;
    for (int round = 1; round <= opts.max_rounds; ++round) {
      if (sg::analyze_csc(g).satisfied()) break;
      sg::Assignments assigns(g.num_states());
      for (sg::SignalId out = 0; out < g.num_signals(); ++out) {
        if (g.is_input(out)) continue;
        const core::InputSetResult isr = tr.time("core.input_set", [&] {
          return core::determine_input_set(g, out, assigns, opts.input_set);
        });
        const core::ModuleGraph module =
            tr.time("core.projection", [&] { return core::build_module(g, out, isr, assigns); });
        tr.add("core.module_states", static_cast<double>(module.proj.graph.num_states()));
        tr.add("core.graph_states", static_cast<double>(g.num_states()));
        if (module.conflicts.empty()) continue;
        const core::PartitionSatResult psr =
            tr.time("core.partition_sat", [&] { return core::partition_sat(module, "m", opts.sat); });
        if (!psr.success) continue;
        tr.time("core.propagate", [&] {
          core::propagate(module, psr.module_assignments, &assigns, g.num_signals());
        });
      }
      if (assigns.empty()) {
        tr.add("core.replay_incomplete", 1);
        return;
      }
      sg::Expansion ex = tr.time("sg.expand", [&] { return sg::expand(g, assigns); });
      tr.add("sg.expanded_states", static_cast<double>(ex.graph.num_states()));
      g = std::move(ex.graph);
    }
    if (g.num_states() != ins.final_states || g.num_signals() != ins.final_signals) {
      o->problems.push_back(util::format(
          "serial replay reached %zu states / %zu signals, the flow %zu / %zu", g.num_states(),
          g.num_signals(), ins.final_states, ins.final_signals));
    }
  });
}

/// Limit guard over the formulas a flow used: a Limit below the backtrack
/// cap was stopped by a clock (per-solve wall-clock cap or a deadline), so
/// the result depends on timing.  Limits at the cap are deterministic and
/// part of the reference (sendr-done's modules hit theirs).
void guard_formulas(const std::vector<core::FormulaStat>& formulas, std::int64_t cap,
                    const std::string& budget, Tracer* tr, Outcome* o) {
  for (const core::FormulaStat& f : formulas) {
    if (f.outcome != sat::Outcome::Limit) continue;
    if (tr != nullptr) tr->add("sat.limit_hits", 1);
    if (f.conflicts <= cap) {
      o->problems.push_back(util::format(
          "a %zu-signal formula stopped after %lld conflicts, below its backtrack cap: "
          "a clock budget tripped (%s)",
          f.num_new_signals, static_cast<long long>(f.conflicts), budget.c_str()));
    }
  }
}

std::string module_budget(const core::SynthesisOptions& opts) {
  return util::format("%lld backtracks / %g s per module solve",
                      static_cast<long long>(opts.sat.solve.max_backtracks),
                      opts.sat.solve.time_limit_s);
}

// ---------------------------------------------------------------------------
// table1-full and baselines: svc::run_synthesis over the Table-1 suite.
// ---------------------------------------------------------------------------

class SynthesisWorkload : public Workload {
 public:
  SynthesisWorkload(const Config& cfg, bool baselines) : cfg_(cfg), baselines_(baselines) {}

  std::vector<Op> setup(Tracer* /*tracer*/) const override {
    const std::vector<std::string> methods =
        baselines_ ? std::vector<std::string>{"direct", "lavagno"}
                   : std::vector<std::string>{"modular"};
    const auto reference = load_reference(
        cfg_.root + (baselines_ ? "/BENCH_table1_cdcl.json" : "/BENCH_table1.json"), methods);
    std::vector<Op> ops;
    for (const std::string& method : methods) {
      for (const benchmarks::Benchmark& b : benchmarks::table1_benchmarks()) {
        Op op{b.name, method, b.make(), {}, std::nullopt};
        if (auto it = reference.find(b.name + "/" + method); it != reference.end()) {
          op.expect = it->second;
        }
        ops.push_back(std::move(op));
      }
    }
    return ops;
  }

  Outcome run(const Op& op) const override {
    const svc::RequestOptions ropts = request_options(op.method);
    util::Timer timer;
    const svc::Artifact a = svc::run_synthesis(op.spec, ropts);
    Outcome o;
    o.seconds = timer.seconds();
    Quality q{a.success,        a.hit_limit,     a.failure_reason, a.initial_states,
              a.initial_signals, a.final_states, a.final_signals,  a.literals,
              a.gates,           a.transistors,  a.solver,         a.covers,
              a.verify_ok,       a.verify_issues};
    check_synthesis(op, q, budget(op.method), &o);
    if (a.success && a.verilog.empty()) o.problems.push_back("no Verilog was written");
    return o;
  }

  Outcome traced(const Op& op, Tracer& tr) const override {
    const svc::RequestOptions ropts = request_options(op.method);
    Outcome o;
    tr.begin_op(op);
    const sg::StateGraph g =
        tr.time("sg.from_stg", [&] { return sg::StateGraph::from_stg(op.spec); });
    tr.add("sg.states_built", static_cast<double>(g.num_states()));
    Insertion ins = insert(op.method, g, ropts, tr);
    Quality q{ins.success,         ins.hit_limit,     ins.failure_reason, ins.initial_states,
              ins.initial_signals, ins.final_states,  ins.final_signals,  0,
              0,                   0,                 ins.solver,         {},
              false,               {}};
    std::optional<netlist::Netlist> net;
    if (ins.success) {
      const Covers covers = derive_logic(ins.final_graph, minimize_options(ropts), tr);
      for (const auto& [output, cover] : covers) q.literals += cover.literal_count();
      q.covers = cover_strings(covers);
      const verify::Report report = tr.time(
          "verify.synthesis", [&] { return verify::verify_synthesis(ins.final_graph, covers); });
      q.verify_ok = report.ok();
      q.verify_issues = report.issues;
      try {
        net = tr.time("netlist.build",
                      [&] { return netlist::build_netlist(ins.final_graph, covers); });
        q.gates = net->num_gates();
        q.transistors = net->transistor_estimate();
        const std::string verilog =
            tr.time("netlist.verilog", [&] { return netlist::write_verilog(*net); });
        if (verilog.empty()) o.problems.push_back("no Verilog was written");
      } catch (const util::Error& e) {
        o.problems.push_back(std::string("netlist: ") + e.what());
      }
    }
    const Tracer::OpTimes times = tr.end_op(conflict_cap(ropts, op.method));
    o.seconds = times.seconds;
    o.attributed = times.attributed;

    if (op.method == "lavagno") {
      const auto limits = times.library.find("sat.solve_limits");
      if (limits != times.library.end()) tr.add("sat.limit_hits", limits->second);
      if (times.library.count("sat.solve_limits_before_cap") != 0) {
        o.problems.push_back("a solve stopped below its backtrack cap: a clock budget tripped (" +
                             budget(op.method) + ")");
      }
    } else {
      guard_formulas(ins.formulas, conflict_cap(ropts, op.method), budget(op.method), &tr, &o);
    }
    // Standalone rerun of the gate-level check verify_synthesis ran inside
    // the operation, outside its span: netlist.verify_si_s is this call.
    if (net.has_value()) {
      const netlist::SiResult si = tr.time("netlist.verify_si", [&] {
        return netlist::verify_speed_independence(*net, ins.final_graph);
      });
      tr.add("netlist.si_states", static_cast<double>(si.states_explored));
      if (!si.ok()) o.problems.push_back("gate-level speed-independence check failed");
    }
    if (op.method == "modular") replay_insertion(g, modular_options(ropts), ins, tr, &o);
    check_synthesis(op, q, budget(op.method), &o);
    return o;
  }

  bool via_service() const override { return true; }

 private:
  /// table1-full: the mps_synth defaults, modular at the CLI's thread count.
  /// baselines: bench/table1's per-method limits under the CDCL engine.
  svc::RequestOptions request_options(const std::string& method) const {
    svc::RequestOptions r = svc::default_request_options(method);
    r.threads = cfg_.threads;
    if (baselines_) {
      r.threads = 1;
      r.direct.solve.max_backtracks = 5000000;
      r.direct.solve.time_limit_s = 60.0;
      r.lavagno.solve.max_backtracks = 2000000;
      r.lavagno.solve.time_limit_s = 20.0;
      r.lavagno.time_limit_s = 300.0;
      svc::set_engine(&r, sat::Engine::Cdcl);
    }
    return r;
  }

  static core::SynthesisOptions modular_options(const svc::RequestOptions& r) {
    core::SynthesisOptions m = r.modular;
    m.num_threads = r.threads;
    return m;
  }

  static const logic::MinimizeOptions& minimize_options(const svc::RequestOptions& r) {
    if (r.method == "direct") return r.direct.minimize;
    if (r.method == "lavagno") return r.lavagno.minimize;
    return r.modular.minimize;
  }

  static std::int64_t conflict_cap(const svc::RequestOptions& r, const std::string& method) {
    if (method == "direct") return r.direct.solve.max_backtracks;
    if (method == "lavagno") return r.lavagno.solve.max_backtracks;
    return r.modular.sat.solve.max_backtracks;
  }

  std::string budget(const std::string& method) const {
    const svc::RequestOptions r = request_options(method);
    if (method == "direct") {
      return util::format("%lld backtracks / %g s per solve",
                          static_cast<long long>(r.direct.solve.max_backtracks),
                          r.direct.solve.time_limit_s);
    }
    if (method == "lavagno") {
      return util::format("%lld backtracks / %g s per solve, %g s overall",
                          static_cast<long long>(r.lavagno.solve.max_backtracks),
                          r.lavagno.solve.time_limit_s, r.lavagno.time_limit_s);
    }
    return module_budget(r.modular);
  }

  Insertion insert(const std::string& method, const sg::StateGraph& g,
                   const svc::RequestOptions& r, Tracer& tr) const {
    if (method == "modular") return modular_insertion(g, modular_options(r), tr);
    if (method == "direct") {
      baseline::DirectOptions opts = r.direct;
      opts.derive_logic = false;
      baseline::DirectResult d =
          tr.time("baseline.direct_insert", [&] { return baseline::direct_synthesis(g, opts); });
      return {d.success,         d.hit_limit,    d.failure_reason, d.initial_states,
              d.initial_signals, d.final_states, d.final_signals,  std::move(d.final_graph),
              d.solver_totals,   d.formulas};
    }
    baseline::LavagnoOptions opts = r.lavagno;
    opts.derive_logic = false;
    baseline::LavagnoResult l =
        tr.time("baseline.lavagno_insert", [&] { return baseline::lavagno_synthesis(g, opts); });
    tr.add("baseline.lavagno_insertions", l.insertions);
    return {l.success,         l.hit_limit,    l.failure_reason, l.initial_states,
            l.initial_signals, l.final_states, l.final_signals,  std::move(l.final_graph),
            l.solver_totals,   {}};
  }

  Config cfg_;
  bool baselines_;
};

// ---------------------------------------------------------------------------
// encode-gen: CSC resolution only, on generated specs.
// ---------------------------------------------------------------------------

class EncodeGenWorkload : public Workload {
 public:
  explicit EncodeGenWorkload(const Config& cfg) : cfg_(cfg) {}

  /// Random specs: this many, drawn from the corpus seed, kept when the spec
  /// has kMinSignals..kMaxSignals signals and its initial state graph
  /// kMinStates..kMaxStates states.  The draws use no guarded choice: a
  /// choice between outputs makes a spec non-semi-modular by design (as
  /// alex-nonfc's arbiter), which the final-graph check would report.
  static constexpr int kRandomSpecs = 8;
  static constexpr std::size_t kMinSignals = 10, kMaxSignals = 12;
  static constexpr std::size_t kMinStates = 100, kMaxStates = 6000;
  static constexpr int kMaxDraws = 5000;

  std::vector<Op> setup(Tracer* tr) const override {
    std::vector<Op> ops;
    auto build = [&](stg::Stg spec, const sg::BuildOptions& bopts) -> std::optional<Op> {
      if (tr != nullptr) tr->set_input(spec.name(), "setup");
      try {
        sg::StateGraph g = tr == nullptr ? sg::StateGraph::from_stg(spec, bopts)
                                         : tr->time("sg.from_stg", [&] {
                                             return sg::StateGraph::from_stg(spec, bopts);
                                           });
        if (tr != nullptr) tr->add("sg.states_built", static_cast<double>(g.num_states()));
        const std::string name = spec.name();
        return Op{name, "modular", std::move(spec), std::move(g), std::nullopt};
      } catch (const util::LimitError&) {
        return std::nullopt;  // larger than the filter admits
      }
    };
    for (stg::Stg spec : {benchmarks::gen_parallelizer("par4", 4),
                          benchmarks::gen_parallelizer("par5", 5),
                          benchmarks::gen_pipeline("pipe6", 6), benchmarks::gen_pipeline("pipe7", 7),
                          benchmarks::gen_sequencer("seq10", 10)}) {
      ops.push_back(*build(std::move(spec), {}));
    }
    util::Rng rng(cfg_.corpus_seed);
    sg::BuildOptions filter;
    filter.max_states = kMaxStates;
    int kept = 0;
    for (int draw = 0; kept < kRandomSpecs; ++draw) {
      if (draw == kMaxDraws) throw util::Error("random corpus: too few specs pass the filter");
      benchmarks::RandomStgOptions ropts;
      ropts.num_signals = 7 + static_cast<int>(rng.below(4));
      ropts.choice_prob = 0.0;
      stg::Stg spec = benchmarks::random_stg(rng, ropts);
      if (spec.num_signals() < kMinSignals || spec.num_signals() > kMaxSignals) continue;
      spec.set_name(util::format("rand%llu-%d", static_cast<unsigned long long>(cfg_.corpus_seed),
                                 draw));
      std::optional<Op> op = build(std::move(spec), filter);
      if (!op.has_value() || op->graph.num_states() < kMinStates) continue;
      ops.push_back(std::move(*op));
      ++kept;
    }
    return ops;
  }

  Outcome run(const Op& op) const override {
    const core::SynthesisOptions opts = options();
    util::Timer timer;
    const core::SynthesisResult r = core::modular_synthesis(op.graph, opts);
    Outcome o;
    o.seconds = timer.seconds();
    std::vector<core::FormulaStat> formulas;
    for (const core::ModuleReport& m : r.modules) {
      formulas.insert(formulas.end(), m.formulas.begin(), m.formulas.end());
    }
    fill(op, r.success, r.failure_reason, r.final_states, r.final_signals, r.solver_totals, &o);
    guard_formulas(formulas, opts.sat.solve.max_backtracks, module_budget(opts), nullptr, &o);
    // The final graph must be a correct encoding: consistent codes, CSC and
    // semi-modularity.  Checked once per spec; later passes must repeat the
    // same signature.
    if (r.success && verified_.insert(op.input).second) {
      const verify::Report report = verify::verify_synthesis(r.final_graph, {});
      if (!report.ok()) {
        o.problems.push_back("final graph fails verify_synthesis: " +
                             (report.issues.empty() ? std::string("-") : report.issues[0]));
      }
    }
    return o;
  }

  Outcome traced(const Op& op, Tracer& tr) const override {
    const core::SynthesisOptions opts = options();
    Outcome o;
    tr.begin_op(op);
    const Insertion ins = modular_insertion(op.graph, opts, tr);
    const Tracer::OpTimes times = tr.end_op();
    o.seconds = times.seconds;
    o.attributed = times.attributed;
    fill(op, ins.success, ins.failure_reason, ins.final_states, ins.final_signals, ins.solver, &o);
    guard_formulas(ins.formulas, opts.sat.solve.max_backtracks, module_budget(opts), &tr, &o);
    replay_insertion(op.graph, opts, ins, tr, &o);
    return o;
  }

 private:
  core::SynthesisOptions options() const {
    core::SynthesisOptions opts;
    opts.derive_logic = false;
    opts.num_threads = cfg_.threads;
    return opts;
  }

  static void fill(const Op& op, bool success, const std::string& reason, std::size_t states,
                   std::size_t signals, const sat::SolverTotals& solver, Outcome* o) {
    o->signals = op.graph.num_signals();
    o->initial_states = static_cast<double>(op.graph.num_states());
    o->final_states = static_cast<double>(states);
    if (success) o->inserted = signals - op.graph.num_signals();
    o->signature = util::format("states=%zu signals=%zu decisions=%lld propagations=%lld "
                                "conflicts=%lld",
                                states, signals, static_cast<long long>(solver.decisions),
                                static_cast<long long>(solver.propagations),
                                static_cast<long long>(solver.conflicts));
    if (!success) o->problems.push_back("insertion failed: " + reason);
  }

  Config cfg_;
  mutable std::set<std::string> verified_;
};

// ---------------------------------------------------------------------------
// csc-scale: CSC verdicts on pipelines, explicit and symbolic engines.
// ---------------------------------------------------------------------------

class CscScaleWorkload : public Workload {
 public:
  std::vector<Op> setup(Tracer* /*tracer*/) const override {
    std::vector<Op> ops;
    for (int n = 8; n <= 11; ++n) ops.push_back(pipeline(n, "explicit"));
    for (int n = 10; n <= 18; ++n) ops.push_back(pipeline(n, "symbolic"));
    return ops;
  }

  Outcome run(const Op& op) const override {
    return verdict(op, nullptr);
  }

  Outcome traced(const Op& op, Tracer& tr) const override {
    tr.begin_op(op);
    Outcome o = verdict(op, &tr);
    const Tracer::OpTimes times = tr.end_op();
    o.seconds = times.seconds;
    o.attributed = times.attributed;
    return o;
  }

  /// Both engines must agree where both run.
  void cross_check(const std::vector<Op>& ops, std::vector<Outcome>& out) const override {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = 0; j < ops.size(); ++j) {
        if (ops[i].method != "explicit" || ops[j].method != "symbolic" ||
            ops[i].input != ops[j].input) {
          continue;
        }
        if (out[i].signature != out[j].signature) {
          out[j].problems.push_back("symbolic verdict " + out[j].signature +
                                    " disagrees with explicit " + out[i].signature);
        }
      }
    }
  }

 private:
  static Op pipeline(int n, const char* engine) {
    const std::string name = "pipe" + std::to_string(n);
    return Op{name, engine, benchmarks::gen_pipeline(name, n), {}, std::nullopt};
  }

  /// Untimed when `tr` is null (the timer covers the engine calls only);
  /// traced, every engine call gets its own span.
  static Outcome verdict(const Op& op, Tracer* tr) {
    auto timed = [&](const char* name, auto&& f) {
      return tr == nullptr ? f() : tr->time(name, f);
    };
    Outcome o;
    o.signals = op.spec.num_signals();
    bool holds = true;
    try {
      util::Timer timer;
      // Freeing a 10^5-state graph or a BDD manager of millions of nodes is
      // part of the operation's cost; the teardown spans make it visible.
      if (op.method == "explicit") {
        std::optional<sg::StateGraph> g;
        timed("sg.from_stg", [&] { g = sg::StateGraph::from_stg(op.spec); });
        holds = timed("sg.csc_verdict", [&] { return sg::analyze_csc(*g).satisfied(); });
        o.final_states = static_cast<double>(g->num_states());
        if (tr != nullptr) tr->add("sg.states_built", o.final_states);
        timed("sg.teardown", [&] { g.reset(); });
      } else {
        std::optional<bdd::SymbolicStg> sym;
        timed("bdd.compile", [&] { sym.emplace(op.spec); });
        o.final_states = timed("bdd.reach", [&] {
          sym->reachable();
          return sym->num_states();
        });
        holds = timed("bdd.csc", [&] { return sym->check_csc().holds; });
        if (tr != nullptr) {
          tr->add("bdd.nodes", static_cast<double>(sym->manager().num_nodes()));
          tr->add("bdd.iterations", static_cast<double>(sym->num_iterations()));
          tr->add("bdd.gc_collections", static_cast<double>(sym->manager().stats().gc_runs));
        }
        timed("bdd.teardown", [&] { sym.reset(); });
      }
      o.seconds = timer.seconds();
    } catch (const util::LimitError& e) {
      o.problems.push_back(std::string("budget tripped: ") + e.what());
    } catch (const util::Error& e) {
      o.problems.push_back(std::string("error: ") + e.what());
    }
    o.initial_states = o.final_states;
    o.signature = util::format("states=%.0f csc=%d", o.final_states, holds ? 1 : 0);
    if (o.problems.empty() && holds) {
      o.problems.push_back("CSC verdict 'holds', but no pipeline of this family satisfies CSC");
    }
    return o;
  }
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1-full", "encode-gen", "baselines",
                                                 "csc-scale"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Config& cfg) {
  if (name == "table1-full") return std::make_unique<SynthesisWorkload>(cfg, false);
  if (name == "baselines") return std::make_unique<SynthesisWorkload>(cfg, true);
  if (name == "encode-gen") return std::make_unique<EncodeGenWorkload>(cfg);
  if (name == "csc-scale") return std::make_unique<CscScaleWorkload>();
  return nullptr;
}

}  // namespace perfbench
