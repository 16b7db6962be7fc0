// determine_input_set (Figure 2): greedily find the minimum signal set
// needed to implement output o — the immediate (trigger) inputs plus every
// signal whose hiding would increase the CSC conflict count or the lower
// bound on state signals, plus the state signals still needed for
// separation.
#pragma once

#include <vector>

#include "sg/assignments.hpp"
#include "sg/state_graph.hpp"
#include "util/bitvec.hpp"

namespace mps::core {

/// No fields; kept only because `perfbench/` passes it.
struct InputSetOptions {};

struct InputSetResult {
  /// kept.test(s) — signal s is in I_S(o) ∪ {o}.
  util::BitVec kept;
  /// Indices (into the supplied Assignments) of state signals to carry
  /// into the module.
  std::vector<std::size_t> kept_state_signals;
  /// Trigger (immediate input) signals of o.
  std::vector<sg::SignalId> triggers;
  /// Conflict count / lower bound on the final module projection.
  std::size_t module_conflicts = 0;
  int module_lower_bound = 0;
  /// States of the final module projection.
  std::size_t module_states = 0;
  /// Greedy hiding effort: signals probed, and probes whose hiding held.
  std::size_t probes = 0;
  std::size_t accepted = 0;
};

/// Trigger signals of `o` at the state-graph level: signals u such that
/// some u-labelled edge newly excites o (o excited in the target but not in
/// the source state).  Matches the STG notion of "transitions immediately
/// preceding o*" on the graphs synthesis runs on.
std::vector<sg::SignalId> sg_trigger_signals(const sg::StateGraph& g, sg::SignalId o);

InputSetResult determine_input_set(const sg::StateGraph& g, sg::SignalId o,
                                   const sg::Assignments& assigns,
                                   const InputSetOptions& opts = {});

}  // namespace mps::core
