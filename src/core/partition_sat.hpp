// partition_sat (Figure 4): satisfy the module's CSC constraints by SAT,
// starting from the lower bound on new state signals and adding one signal
// after each Unsat until the formula is satisfiable.  A formula that hits
// its limit ends the module.  Before the first escalation a single-signal
// separability certificate asks whether any signal count can succeed, so a
// module no m can solve fails after a few tiny formulas instead of after
// one solve per m (DESIGN.md §6).
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
  /// A separability-certificate solve, not a Figure-4 formula.
  bool certificate = false;
};

/// The largest state-signal count one formula asks for: Figure 4's
/// escalation, the modular rescue and the direct baseline all stop here.
inline constexpr std::size_t kMaxNewSignals = 10;

struct PartitionSatOptions {
  encoding::EncodeOptions encode;
  /// Module formulas are tiny, but a formula at too small an m can still be
  /// a hard Unsat instance; a backtrack cap keeps a single module from
  /// stalling the flow (the module then fails, and a later round or the
  /// rescue path on the complete graph finishes the job).
  sat::SolveOptions solve{.max_backtracks = 150'000, .time_limit_s = 5.0};
};

/// One direct round on a complete graph (Vanbekbergen et al. [22]; also
/// the modular flow's rescue): encode the conflicts `csc` of `g` for
/// m = max(1, lower bound) new signals, adding a signal on Unsat up to
/// kMaxNewSignals.  Stops at the first Sat, decoded into `*out` with
/// `name_prefix`, or Limit, and returns that outcome (Unsat when the bound
/// ran out).  Appends one FormulaStat per formula to `*formulas`.
sat::Outcome direct_round(const sg::StateGraph& g, const sg::CscResult& csc,
                          const encoding::EncodeOptions& encode, const sat::SolveOptions& solve,
                          const std::string& name_prefix, sg::Assignments* out,
                          std::vector<FormulaStat>* formulas);

/// Decode `model` and append each new signal that is not constant to `*out`:
/// a constant signal separates nothing (the signal-count bound overshot).
void decode_varying(const encoding::Encoding& enc, const sat::Model& model,
                    const std::string& name_prefix, sg::Assignments* out);

/// The certificate formula of conflict pair (i, j): `base`, an m = 1
/// Encoding without separation or compatibility clauses, plus four unit
/// clauses pinning i to stable 0 and j to stable 1.
sat::Cnf pinned_pair_formula(const encoding::Encoding& base, sg::StateId i, sg::StateId j);

/// Single-signal separability certificate for the module's conflicts.
/// Every clause family except separation and compatibility is per signal,
/// so a conflict pair that no single signal can separate is separated by
/// no m signals either.  Solves one pinned_pair_formula per pair not
/// already separated by an earlier witness, and stops at the first
/// non-Sat outcome: Unsat proves no m solves the module, Limit leaves the
/// question open, Sat means every pair has a separating signal.  Appends
/// one FormulaStat (certificate = true) per solve to `*formulas`.
sat::Outcome separability_certificate(const ModuleGraph& module, const PartitionSatOptions& opts,
                                      std::vector<FormulaStat>* formulas);

struct PartitionSatResult {
  /// False after a refutation, a formula that hit its limit, or Unsat at
  /// every m up to kMaxNewSignals.
  bool success = false;
  /// The separability certificate proved that no signal count can
  /// separate the module's conflicts.
  bool refuted = false;
  /// New signals' assignments on the *module* states.
  sg::Assignments module_assignments;
  std::vector<FormulaStat> formulas;
};

/// Figure 4 on `module`: m = max(1, lower bound) new signals, one more
/// after each Unsat, up to kMaxNewSignals.  Stops at the first Sat
/// (decoded with `name_prefix`), the first Limit, or a refuting certificate.
PartitionSatResult partition_sat(const ModuleGraph& module, const std::string& name_prefix,
                                 const PartitionSatOptions& opts = {});

/// propagate (Figure 5): copy the module's new-signal values to every
/// complete-graph state through the cover map, appending to `global`.
void propagate(const ModuleGraph& module, const sg::Assignments& module_assignments,
               sg::Assignments* global, std::size_t name_offset = 0);

}  // namespace mps::core
