// partition_sat (Figure 4): satisfy the module's CSC constraints by SAT,
// starting from the lower bound on new state signals and adding one signal
// at a time until the formula is satisfiable.
#pragma once

#include <string>
#include <vector>

#include "core/module_graph.hpp"
#include "encoding/csc_sat.hpp"
#include "sat/solver.hpp"

namespace mps::core {

/// Size and solve statistics of one SAT attempt (reported in Table 1 /
/// the clause-count bench).
struct FormulaStat {
  std::size_t num_new_signals = 0;
  std::size_t num_vars = 0;
  std::size_t num_clauses = 0;
  sat::Outcome outcome = sat::Outcome::Unsat;
  double seconds = 0.0;
  /// Search effort.  `backtracks` counts chronological backtracks (DPLL)
  /// or backjumps (CDCL); `conflicts` is the engine-independent effort
  /// measure the solver totals aggregate.
  std::int64_t backtracks = 0;
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t restarts = 0;
  std::int64_t learned = 0;
};

struct PartitionSatOptions {
  encoding::EncodeOptions encode;
  /// Module formulas are tiny, but pathological UNSAT escalations exist;
  /// a backtrack cap keeps a single module from stalling the flow (the
  /// rescue path then finishes the job on the complete graph).
  sat::SolveOptions solve{.max_backtracks = 150'000, .time_limit_s = 5.0};
  std::size_t max_new_signals = 10;
};

/// Solve one CSC formula with sat::Solver and record its size, outcome,
/// wall time and search effort.  On Sat, `*model` receives the assignment.
FormulaStat solve_formula(const encoding::Encoding& enc, const sat::SolveOptions& opts,
                          sat::Model* model);

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
