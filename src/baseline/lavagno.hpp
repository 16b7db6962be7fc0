// A Lavagno/Moon-style monolithic baseline [13], reconstructed: state
// signals are inserted one at a time at the level of the *complete* state
// graph (no decomposition), each insertion targeting the currently worst
// code-equal conflict class, with the graph re-expanded and re-analysed
// after every insertion.  This reproduces the cost profile of the original
// (whole-graph manipulation per inserted signal, repeated global
// re-analysis) without its FSM state-minimization machinery — see
// DESIGN.md's substitution table.
//
// Fixed bounds: at most kMaxInsertions rounds, and at most
// kMaxSignalsPerClass signals tried for one conflict class.  The overall
// budget `time_limit_s` joins `solve.deadline` once, at entry: every
// round and every SAT solve sees the same cutoff.
#pragma once

#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "logic/minimize.hpp"
#include "sg/state_graph.hpp"

namespace mps::baseline {

inline constexpr int kMaxInsertions = 64;
inline constexpr std::size_t kMaxSignalsPerClass = 4;

struct LavagnoOptions {
  sat::SolveOptions solve;
  logic::MinimizeOptions minimize;
  double time_limit_s = 0.0;  ///< overall wall-clock budget; <=0 = unlimited
  bool derive_logic = true;
};

/// `solver_totals` sums the effort of every insertion's formula attempts
/// under whichever engine `solve.engine` selects (walksat successes
/// contribute nothing: no DPLL or CDCL search ran).
struct LavagnoResult : core::FlowResult {
  int insertions = 0;
};

LavagnoResult lavagno_synthesis(const sg::StateGraph& g, const LavagnoOptions& opts = {});
LavagnoResult lavagno_synthesis(const stg::Stg& stg, const LavagnoOptions& opts = {});

}  // namespace mps::baseline
