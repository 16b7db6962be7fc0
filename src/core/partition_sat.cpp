#include "core/partition_sat.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace mps::core {

namespace {

/// Solve one CSC formula over `m` new signals with sat::Solver and record
/// its size, outcome, wall time and search effort.  On Sat, `*model`
/// receives the assignment.
FormulaStat solve_formula(const sat::Cnf& cnf, std::size_t m, const sat::SolveOptions& opts,
                          sat::Model* model) {
  FormulaStat stat;
  stat.num_new_signals = m;
  stat.num_vars = cnf.num_vars();
  stat.num_clauses = cnf.num_clauses();
  stat.outcome = sat::Solver().solve(cnf, model, &stat, opts);
  return stat;
}

/// True when `model` of an m = 1 encoding gives i and j stable,
/// complementary values.
bool separates(const encoding::Encoding& enc, const sat::Model& model, sg::StateId i,
               sg::StateId j) {
  return !model[enc.var_a(i, 0)] && !model[enc.var_a(j, 0)] &&
         model[enc.var_b(i, 0)] != model[enc.var_b(j, 0)];
}

}  // namespace

sat::Outcome direct_round(const sg::StateGraph& g, const sg::CscResult& csc,
                          const encoding::EncodeOptions& encode, const sat::SolveOptions& solve,
                          const std::string& name_prefix, sg::Assignments* out,
                          std::vector<FormulaStat>* formulas) {
  for (std::size_t m = static_cast<std::size_t>(std::max(1, csc.lower_bound));
       m <= kMaxNewSignals; ++m) {
    const encoding::Encoding enc(g, m, csc.conflicts, csc.compatible_pairs, encode);
    sat::Model model;
    formulas->push_back(solve_formula(enc.cnf(), m, solve, &model));
    const sat::Outcome outcome = formulas->back().outcome;
    if (outcome == sat::Outcome::Sat) enc.decode(model, out, name_prefix);
    if (outcome != sat::Outcome::Unsat) return outcome;
  }
  return sat::Outcome::Unsat;
}

void decode_varying(const encoding::Encoding& enc, const sat::Model& model,
                    const std::string& name_prefix, sg::Assignments* out) {
  sg::Assignments decoded(out->num_states());
  enc.decode(model, &decoded, name_prefix);
  for (std::size_t k = 0; k < decoded.num_signals(); ++k) {
    const auto& vals = decoded.values(k);
    if (std::all_of(vals.begin(), vals.end(), [&](sg::V4 v) { return v == vals.front(); })) {
      continue;
    }
    out->add_signal(decoded.name(k), std::vector<sg::V4>(vals));
  }
}

sat::Cnf pinned_pair_formula(const encoding::Encoding& base, sg::StateId i, sg::StateId j) {
  MPS_ASSERT(base.num_new_signals() == 1);
  sat::Cnf cnf = base.cnf();
  cnf.add_unit(sat::neg(base.var_a(i, 0)));
  cnf.add_unit(sat::neg(base.var_b(i, 0)));
  cnf.add_unit(sat::neg(base.var_a(j, 0)));
  cnf.add_unit(sat::pos(base.var_b(j, 0)));
  return cnf;
}

sat::Outcome separability_certificate(const ModuleGraph& module, const PartitionSatOptions& opts,
                                      std::vector<FormulaStat>* formulas) {
  obs::Span span("synth.certificate");
  // Pinning i to 0 and j to 1 covers the (1, 0) orientation too: every
  // per-signal clause is invariant under 0<->1, Up<->Down.
  const encoding::Encoding base(module.proj.graph, 1, {}, {}, opts.encode);
  const auto& pairs = module.conflicts;
  std::vector<bool> separated(pairs.size(), false);
  const std::size_t first = formulas->size();
  sat::Outcome outcome = sat::Outcome::Sat;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (separated[p]) continue;
    sat::Model model;
    formulas->push_back(
        solve_formula(pinned_pair_formula(base, pairs[p].first, pairs[p].second), 1, opts.solve,
                      &model));
    formulas->back().certificate = true;
    outcome = formulas->back().outcome;
    if (outcome != sat::Outcome::Sat) break;
    // One witness often separates many of the remaining pairs.
    for (std::size_t q = p + 1; q < pairs.size(); ++q) {
      if (!separated[q]) separated[q] = separates(base, model, pairs[q].first, pairs[q].second);
    }
  }
  span.arg("pairs", static_cast<std::int64_t>(pairs.size()));
  span.arg("formulas", static_cast<std::int64_t>(formulas->size() - first));
  span.arg("refuted", outcome == sat::Outcome::Unsat ? 1 : 0);
  return outcome;
}

PartitionSatResult partition_sat(const ModuleGraph& module, const std::string& name_prefix,
                                 const PartitionSatOptions& opts) {
  PartitionSatResult result;
  result.module_assignments = sg::Assignments(module.proj.graph.num_states());
  if (module.conflicts.empty()) {
    result.success = true;  // nothing to resolve for this output
    return result;
  }

  // Figure 4: start at the module's lower bound; on UNSAT add a state
  // signal.  A Limit ends the module: a capped formula proves nothing, and
  // the round's other modules, the next round or the rescue go on without
  // it.  After the first Unsat, the separability certificate stops the
  // escalation when no m can succeed.
  const std::size_t lowest = static_cast<std::size_t>(std::max(1, module.lower_bound));
  for (std::size_t m = lowest; m <= kMaxNewSignals; ++m) {
    const encoding::Encoding enc(module.proj.graph, m, module.conflicts,
                                 module.compatible_pairs, opts.encode);
    sat::Model model;
    result.formulas.push_back(solve_formula(enc.cnf(), m, opts.solve, &model));
    const sat::Outcome outcome = result.formulas.back().outcome;
    if (outcome == sat::Outcome::Sat) {
      decode_varying(enc, model, name_prefix, &result.module_assignments);
      result.success = true;
      return result;
    }
    if (outcome == sat::Outcome::Limit) return result;
    if (m == lowest && m < kMaxNewSignals &&
        separability_certificate(module, opts, &result.formulas) == sat::Outcome::Unsat) {
      result.refuted = true;
      return result;
    }
  }
  return result;
}

void propagate(const ModuleGraph& module, const sg::Assignments& module_assignments,
               sg::Assignments* global, std::size_t name_offset) {
  const auto& cover = module.proj.state_map;
  MPS_ASSERT(cover.size() == global->num_states());
  for (std::size_t k = 0; k < module_assignments.num_signals(); ++k) {
    std::vector<sg::V4> values(global->num_states());
    for (sg::StateId s = 0; s < global->num_states(); ++s) {
      values[s] = module_assignments.value(k, cover[s]);
    }
    // Globally unique name: per-module names could collide across modules.
    global->add_signal("csc" + std::to_string(name_offset + global->num_signals()),
                       std::move(values));
  }
}

}  // namespace mps::core
