#include "core/synthesis.hpp"

#include "logic/extract.hpp"
#include "obs/obs.hpp"
#include "sg/csc.hpp"
#include "sg/projection.hpp"
#include "util/common.hpp"

namespace mps::core {

namespace {

/// Rescue path: when every per-output module reports no conflicts but the
/// complete graph still violates CSC (conflicting states merged away by
/// the projections), resolve the remaining conflicts `csc` with one direct
/// round on the complete graph, naming its signals csc<N+k>.
sat::Outcome rescue_direct(const sg::StateGraph& g, const sg::CscResult& csc,
                           const PartitionSatOptions& opts, sg::Assignments* assigns,
                           std::vector<FormulaStat>* formulas) {
  obs::Span span("synth.rescue");
  sg::Assignments fresh(g.num_states());
  const sat::Outcome outcome =
      direct_round(g, csc, opts.encode, opts.solve, "rescue", &fresh, formulas);
  for (std::size_t k = 0; k < fresh.num_signals(); ++k) {
    assigns->add_signal("csc" + std::to_string(g.num_signals() + assigns->num_signals()),
                        std::vector<sg::V4>(fresh.values(k)));
  }
  return outcome;
}

/// One per-output unit of a synthesis round: everything up to — but not
/// including — the merge/propagate step.
struct ModuleWork {
  ModuleGraph module;
  ModuleReport report;
  PartitionSatResult psr;
};

/// Compute the module of output `o` against the state-signal assignments
/// accumulated so far this round.
ModuleWork compute_module(const sg::StateGraph& g, sg::SignalId o,
                          const sg::Assignments& assigns, const PartitionSatOptions& sat_opts,
                          int round) {
  util::Timer timer;
  obs::Span span("synth.module", g.signal(o).name);
  span.arg("round", round);
  InputSetResult isr;
  {
    obs::Span is_span("core.input_set");
    isr = determine_input_set(g, o, assigns);
    is_span.arg("probes", static_cast<std::int64_t>(isr.probes));
    is_span.arg("accepted", static_cast<std::int64_t>(isr.accepted));
    is_span.arg("module_states", static_cast<std::int64_t>(isr.module_states));
  }
  ModuleWork w;
  w.module = build_module(g, o, isr, assigns);

  w.report.output = g.signal(o).name;
  w.report.round = round;
  w.report.input_set_size = isr.kept.count() - 1;  // excluding o itself
  w.report.module_states = w.module.proj.graph.num_states();
  w.report.module_conflicts = w.module.conflicts.size();

  if (!w.module.conflicts.empty()) w.psr = partition_sat(w.module, "m", sat_opts);
  w.report.seconds = timer.seconds();
  span.arg("module_states", static_cast<std::int64_t>(w.report.module_states));
  span.arg("conflicts", static_cast<std::int64_t>(w.report.module_conflicts));
  span.arg("inserts", w.psr.success && w.psr.module_assignments.num_signals() > 0 ? 1 : 0);
  return w;
}

}  // namespace

std::size_t derive_all_logic(const sg::StateGraph& g, const logic::MinimizeOptions& opts,
                             std::vector<std::pair<std::string, logic::Cover>>* covers) {
  std::size_t total = 0;
  const sg::CodeClasses classes = sg::code_classes(g);
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (g.is_input(s)) continue;
    const logic::SopSpec spec = [&] {
      obs::Span span("logic.extract", g.signal(s).name);
      logic::SopSpec extracted = logic::extract_next_state(g, s, classes);
      span.arg("on", static_cast<std::int64_t>(extracted.on.size()));
      span.arg("off", static_cast<std::int64_t>(extracted.off.size()));
      return extracted;
    }();
    obs::Span span("logic.minimize", g.signal(s).name);
    logic::Cover cover = logic::minimize(spec, opts);
    span.arg("cubes", static_cast<std::int64_t>(cover.size()));
    total += cover.literal_count();
    if (covers != nullptr) covers->emplace_back(g.signal(s).name, std::move(cover));
  }
  return total;
}

void run_insertion_flow(const sg::StateGraph& input, const FlowSettings& settings,
                        const RoundPolicy& round, FlowResult* result) {
  util::Timer timer;
  sg::StateGraph g = sg::contract_silent(input);
  result->initial_states = g.num_states();
  result->initial_signals = g.num_signals();

  // CSC is analysed at the top of every round, the check after the last
  // expansion included, so the last verdict is the run's.
  bool clean = false;
  bool stopped = false;
  for (int r = 1;; ++r) {
    // The deadline first: an already-expired request must fail fast even
    // when the spec happens to be conflict-free (the service layer relies
    // on this to bound per-request work).
    if (r <= settings.max_rounds && settings.deadline.expired()) {
      result->failure_reason = "deadline exceeded";
      result->hit_limit = true;
      stopped = true;
      break;
    }
    const sg::CscResult csc = sg::analyze_csc(g);
    clean = csc.satisfied();
    if (clean || r > settings.max_rounds) break;
    std::optional<sg::Assignments> assigns = round(g, csc, r);
    if (!assigns.has_value()) {
      stopped = true;
      break;
    }
    g = sg::expand(g, *assigns, settings.check_consistency).graph;
  }

  result->success = !stopped && clean;
  if (result->success) {
    // Transient module or attempt limits were recovered.
    result->failure_reason.clear();
    result->hit_limit = false;
  } else if (!stopped) {  // the round budget ran out
    result->hit_limit = true;
    if (result->failure_reason.empty()) result->failure_reason = settings.exhausted_reason;
  }
  result->final_states = g.num_states();
  result->final_signals = g.num_signals();
  result->final_graph = std::move(g);
  if (result->success && settings.derive_logic) {
    result->total_literals =
        derive_all_logic(result->final_graph, settings.minimize, &result->covers);
  }
  result->seconds = timer.seconds();
}

SynthesisResult modular_synthesis(const sg::StateGraph& input, const SynthesisOptions& opts) {
  obs::Span synth_span("synth.modular");
  SynthesisResult result;
  const RoundPolicy round = [&](const sg::StateGraph& g, const sg::CscResult& csc,
                                int r) -> std::optional<sg::Assignments> {
    result.rounds = r;
    sg::Assignments assigns(g.num_states());

    // Figure 6 main loop: one module per output signal, in output order,
    // so output k sees the signals that outputs < k inserted this round.
    for (sg::SignalId o = 0; o < g.num_signals(); ++o) {
      if (g.is_input(o)) continue;
      ModuleWork w = compute_module(g, o, assigns, opts.sat, r);
      if (!w.module.conflicts.empty()) {
        w.report.formulas = w.psr.formulas;
        if (w.psr.success) {
          w.report.new_signals = w.psr.module_assignments.num_signals();
          propagate(w.module, w.psr.module_assignments, &assigns,
                    /*name_offset=*/g.num_signals());
        } else if (w.psr.refuted) {
          result.failure_reason =
              "no state-signal count separates the conflicts of output " + w.report.output;
        } else {
          result.failure_reason = "partition SAT hit its limit for output " + w.report.output;
        }
      }
      result.modules.push_back(std::move(w.report));
    }
    if (!assigns.empty()) return assigns;

    // No module saw a conflict, yet the complete graph has some:
    // projections can merge conflicting states (§3.4 worst case).
    ModuleReport report;
    report.output = "(rescue: complete graph)";
    report.round = r;
    report.module_states = g.num_states();
    report.module_conflicts = csc.conflicts.size();
    const sat::Outcome outcome = rescue_direct(g, csc, opts.sat, &assigns, &report.formulas);
    report.new_signals = assigns.num_signals();
    result.modules.push_back(std::move(report));
    if (outcome == sat::Outcome::Sat) return assigns;
    if (result.failure_reason.empty()) {
      result.failure_reason = "unable to resolve residual CSC conflicts";
    }
    result.hit_limit = outcome == sat::Outcome::Limit;
    return std::nullopt;
  };
  run_insertion_flow(input,
                     {.max_rounds = opts.max_rounds,
                      .exhausted_reason = "CSC conflicts remain after " +
                                          std::to_string(opts.max_rounds) + " rounds",
                      .deadline = opts.sat.solve.deadline,
                      .derive_logic = opts.derive_logic,
                      .minimize = opts.minimize},
                     round, &result);

  for (const ModuleReport& m : result.modules) {
    for (const FormulaStat& f : m.formulas) result.solver_totals.add(f);
  }
  synth_span.arg("rounds", result.rounds);
  synth_span.arg("final_states", static_cast<std::int64_t>(result.final_states));
  synth_span.arg("decisions", result.solver_totals.decisions);
  synth_span.arg("success", result.success ? 1 : 0);
  return result;
}

SynthesisResult modular_synthesis(const stg::Stg& stg, const SynthesisOptions& opts) {
  return modular_synthesis(sg::StateGraph::from_stg(stg, opts.build), opts);
}

}  // namespace mps::core
