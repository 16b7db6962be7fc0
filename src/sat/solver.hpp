// Two SAT engines behind one entry point, selected by SolveOptions::engine:
//
//   * Engine::Dpll (default) — a branch-and-bound (DPLL) solver with
//     two-watched-literal unit propagation, a from-scratch equivalent of
//     the SIS solver (Stephan, Brayton, Sangiovanni-Vincentelli, ERL
//     M92/112) the paper used.  Deliberately *not* clause-learning: the
//     paper's observation — direct SAT-CSC formulas defeat branch-and-bound
//     search while the modular formulas are trivial — is a statement about
//     this solver class, and Table 1's "SAT Backtrack Limit" entries are
//     reproduced by the same mechanism (the backtrack limit below).  This
//     engine is the pinned Table-1 reference and never changes behavior.
//
//   * Engine::Cdcl — a conflict-driven clause-learning solver (GRASP/Chaff
//     lineage: first-UIP learning with clause minimization, non-
//     chronological backjumping, EVSIDS branching, Luby restarts, LBD-based
//     clause-DB reduction) on the same arena/watcher substrate.  It retires
//     every Table-1 LIMIT row; see DESIGN.md "CDCL engine".
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "sat/cnf.hpp"
#include "util/common.hpp"

namespace mps::sat {

enum class Outcome { Sat, Unsat, Limit };

/// Search engine selector.  Dpll is the paper-faithful reference whose
/// Table-1 quality columns are bit-identity-pinned; Cdcl is the
/// clause-learning engine.  Result-affecting: svc::request_fingerprint
/// includes it for every method.
enum class Engine { Dpll, Cdcl };

/// Canonical lower-case name ("dpll" / "cdcl") — the spelling shared by the
/// --engine CLI flags, the svc protocol's "engine" field and bench/table1's
/// JSON schema.
const char* engine_name(Engine e);
/// Inverse of engine_name; nullopt on anything else (callers own the
/// diagnostic).
std::optional<Engine> engine_from_name(std::string_view name);

struct SolveOptions {
  /// Which search loop runs.  Both honor every limit field below.
  Engine engine = Engine::Dpll;
  /// Abort with Outcome::Limit beyond this many conflicts (for DPLL:
  /// backtracks — flips of a decision; the two counts coincide there);
  /// <0 = unlimited.
  std::int64_t max_backtracks = -1;
  /// Wall-clock limit in seconds; <=0 = unlimited.  Checked periodically on
  /// both decisions and conflicts, so propagation-heavy runs with few
  /// backtracks still honor it.
  double time_limit_s = 0.0;
  /// Cutoff shared by a group of solves (e.g. every solve of one request);
  /// default = none.  Each solve folds time_limit_s into it when it starts:
  /// whichever fires first wins.
  util::Deadline deadline{};
  /// Restart the search (keeping variable activities) after this many
  /// conflicts; 0 disables restarts.  The DPLL engine doubles the budget
  /// after every restart (geometric, saturating at int64 max); the CDCL
  /// engine scales it by the Luby sequence.  Restarts do not affect
  /// completeness — a run that ends by exhausting the search space still
  /// reports Unsat.
  std::int64_t restart_interval = 256;
  /// Seed for the DPLL engine's occasional random branch decisions
  /// (restarts explore new regions).  The CDCL engine never reads it: its
  /// branching is fully determined by the formula.
  std::uint64_t seed = 0x9E3779B9;
  /// Test/reference hook: select branch variables with the original O(#vars)
  /// linear scan instead of the variable-order heap.  Both maximize the same
  /// total order (score+activity desc, var id asc), so the decision sequence
  /// must be identical — the HeapMatchesLinearScanReference regression test
  /// pins exactly that.  Never set on a production path.
  bool reference_linear_branching = false;
  /// When non-null, every fresh branch decision literal is appended (flips
  /// on backtrack are not logged; they are determined by the decisions).
  /// Test-only observability for the determinism regression tests.
  std::vector<Lit>* decision_log = nullptr;
};

/// Search statistics of one solve() call.  Also the payload of the
/// "sat.solve" span every solve records into obs:: — the trace/stats output
/// and the caller-visible stats are the same numbers by construction.
struct SolveStats {
  std::int64_t decisions = 0;
  /// Backtrack/backjump operations.  The DPLL engine backtracks once per
  /// conflict (no clause learning), so conflicts == backtracks there — an
  /// invariant pinned by the DpllConflictsEqualBacktracks regression test.
  /// The CDCL engine backjumps non-chronologically, and a conflict at
  /// decision level 0 ends the search without any backjump, so the two
  /// counts diverge; `conflicts` is a real counted field, not an alias.
  std::int64_t backtracks = 0;
  /// Conflicting propagations encountered (counted at the conflict site by
  /// both engines).
  std::int64_t conflicts = 0;
  std::int64_t propagations = 0;
  std::int64_t restarts = 0;
  /// Learned clauses recorded (0 for the DPLL engine, which learns none).
  std::int64_t learned = 0;
  double seconds = 0.0;
};

/// Aggregate search effort over a group of solves (one synthesis run, one
/// Table-1 row).
struct SolverTotals {
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t conflicts = 0;
  std::int64_t restarts = 0;
  std::int64_t learned = 0;

  /// Accumulate one solve's effort (core::FormulaStat is a SolveStats).
  void add(const SolveStats& s) {
    decisions += s.decisions;
    propagations += s.propagations;
    conflicts += s.conflicts;
    restarts += s.restarts;
    learned += s.learned;
  }
};

class Solver {
 public:
  /// Solve `cnf`.  On Sat, `*model` (if non-null) receives a satisfying
  /// total assignment.  `*stats` (if non-null) receives search statistics.
  Outcome solve(const Cnf& cnf, Model* model = nullptr, SolveStats* stats = nullptr,
                const SolveOptions& opts = {});
};

}  // namespace mps::sat
