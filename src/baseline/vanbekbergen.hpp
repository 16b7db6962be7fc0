// The direct (no-decomposition) baseline: Vanbekbergen et al.'s generalized
// state assignment [22], reconstructed.  One SAT formula over the complete
// state graph encodes all consistency, semi-modularity and CSC constraints
// for m state signals; m starts at the lower bound and grows until
// satisfiable.  This is the method whose formulas reach tens of thousands
// of clauses (mmu0: 35,386 in the paper) and whose search hits the
// backtrack limit on the large Table-1 entries.
#pragma once

#include <string>
#include <vector>

#include "core/partition_sat.hpp"
#include "core/synthesis.hpp"
#include "logic/minimize.hpp"
#include "sg/state_graph.hpp"

namespace mps::baseline {

/// Each round escalates m up to core::kMaxNewSignals.
struct DirectOptions {
  sat::SolveOptions solve;          ///< set max_backtracks/time_limit_s for Table-1 runs
  logic::MinimizeOptions minimize;
  int max_rounds = 6;
  bool derive_logic = true;
};

struct DirectResult : core::FlowResult {
  /// Every formula attempt, including the one that hit the limit on the
  /// "SAT Backtrack Limit" rows.
  std::vector<core::FormulaStat> formulas;
  int rounds = 0;
};

DirectResult direct_synthesis(const sg::StateGraph& g, const DirectOptions& opts = {});
DirectResult direct_synthesis(const stg::Stg& stg, const DirectOptions& opts = {});

}  // namespace mps::baseline
