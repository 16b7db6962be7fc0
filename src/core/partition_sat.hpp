// partition_sat (Figure 4): satisfy the module's CSC constraints by SAT,
// starting from the lower bound on new state signals and adding one signal
// at a time until the formula is satisfiable.
#pragma once

#include <string>
#include <vector>

#include "core/module_graph.hpp"
#include "encoding/csc_sat.hpp"
#include "sat/solver.hpp"
#include "sg/csc.hpp"

namespace mps::core {

/// Size, outcome and search effort of one SAT attempt (reported in
/// Table 1 / the clause-count bench).
struct FormulaStat : sat::SolveStats {
  std::size_t num_new_signals = 0;
  std::size_t num_vars = 0;
  std::size_t num_clauses = 0;
  sat::Outcome outcome = sat::Outcome::Unsat;
};

struct PartitionSatOptions {
  encoding::EncodeOptions encode;
  /// Module formulas are tiny, but pathological UNSAT escalations exist;
  /// a backtrack cap keeps a single module from stalling the flow (the
  /// rescue path then finishes the job on the complete graph).
  sat::SolveOptions solve{.max_backtracks = 150'000, .time_limit_s = 5.0};
  std::size_t max_new_signals = 10;
};

/// One direct round on a complete graph (Vanbekbergen et al. [22]; also
/// the modular flow's rescue): encode the conflicts `csc` of `g` for
/// m = max(1, lower bound) new signals, adding a signal on Unsat up to
/// `max_new_signals`.  Stops at the first Sat, decoded into `*out` with
/// `name_prefix`, or Limit, and returns that outcome (Unsat when the bound
/// ran out).  Appends one FormulaStat per formula to `*formulas`.
sat::Outcome direct_round(const sg::StateGraph& g, const sg::CscResult& csc,
                          const encoding::EncodeOptions& encode, const sat::SolveOptions& solve,
                          std::size_t max_new_signals, const std::string& name_prefix,
                          sg::Assignments* out, std::vector<FormulaStat>* formulas);

/// Decode `model` and append each new signal that is not constant to `*out`:
/// a constant signal separates nothing (the signal-count bound overshot).
void decode_varying(const encoding::Encoding& enc, const sat::Model& model,
                    const std::string& name_prefix, sg::Assignments* out);

struct PartitionSatResult {
  bool success = false;
  /// New signals' assignments on the *module* states.
  sg::Assignments module_assignments;
  std::vector<FormulaStat> formulas;
};

PartitionSatResult partition_sat(const ModuleGraph& module, const std::string& name_prefix,
                                 const PartitionSatOptions& opts = {});

/// propagate (Figure 5): copy the module's new-signal values to every
/// complete-graph state through the cover map, appending to `global`.
void propagate(const ModuleGraph& module, const sg::Assignments& module_assignments,
               sg::Assignments* global, std::size_t name_offset = 0);

}  // namespace mps::core
