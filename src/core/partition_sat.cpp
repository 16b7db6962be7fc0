#include "core/partition_sat.hpp"

#include <algorithm>

#include "util/common.hpp"

namespace mps::core {

namespace {

/// Solve one CSC formula with sat::Solver and record its size, outcome,
/// wall time and search effort.  On Sat, `*model` receives the assignment.
FormulaStat solve_formula(const encoding::Encoding& enc, const sat::SolveOptions& opts,
                          sat::Model* model) {
  FormulaStat stat;
  stat.num_new_signals = enc.num_new_signals();
  stat.num_vars = enc.cnf().num_vars();
  stat.num_clauses = enc.cnf().num_clauses();
  stat.outcome = sat::Solver().solve(enc.cnf(), model, &stat, opts);
  return stat;
}

}  // namespace

sat::Outcome direct_round(const sg::StateGraph& g, const sg::CscResult& csc,
                          const encoding::EncodeOptions& encode, const sat::SolveOptions& solve,
                          std::size_t max_new_signals, const std::string& name_prefix,
                          sg::Assignments* out, std::vector<FormulaStat>* formulas) {
  for (std::size_t m = static_cast<std::size_t>(std::max(1, csc.lower_bound));
       m <= max_new_signals; ++m) {
    const encoding::Encoding enc(g, m, csc.conflicts, csc.compatible_pairs, encode);
    sat::Model model;
    formulas->push_back(solve_formula(enc, solve, &model));
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

PartitionSatResult partition_sat(const ModuleGraph& module, const std::string& name_prefix,
                                 const PartitionSatOptions& opts) {
  PartitionSatResult result;
  result.module_assignments = sg::Assignments(module.proj.graph.num_states());
  if (module.conflicts.empty()) {
    result.success = true;  // nothing to resolve for this output
    return result;
  }

  // Figure 4: start at the module's lower bound; on UNSAT add a state
  // signal.  Outcome::Limit escalates m the same way: a larger signal
  // count often has easy solutions where the smaller formula was a hard
  // (likely unsatisfiable) instance.
  for (std::size_t m = static_cast<std::size_t>(std::max(1, module.lower_bound));
       m <= opts.max_new_signals; ++m) {
    const encoding::Encoding enc(module.proj.graph, m, module.conflicts,
                                 module.compatible_pairs, opts.encode);
    sat::Model model;
    result.formulas.push_back(solve_formula(enc, opts.solve, &model));
    if (result.formulas.back().outcome == sat::Outcome::Sat) {
      decode_varying(enc, model, name_prefix, &result.module_assignments);
      result.success = true;
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
