// Signal hiding and ε-merging (§3.3): the machinery that turns the complete
// state graph Σ into a modular state graph Σ_o.
//
// Hiding a signal relabels its transitions as ε; states connected by ε
// edges are then merged (the finite-automaton ε-removal the paper cites).
// Existing state-signal assignments are carried into the quotient by the
// Figure-3 merge rules.
#pragma once

#include <optional>
#include <vector>

#include "sg/assignments.hpp"
#include "sg/state_graph.hpp"

namespace mps::sg {

struct Projection {
  /// The quotient graph; its signals are the kept signals, in ascending
  /// original id order.
  StateGraph graph;
  /// cover map (Fig. 5): full-graph state -> quotient state.
  std::vector<StateId> state_map;
  /// kept[i] = original id of quotient signal i.
  std::vector<SignalId> kept;
  /// Existing state-signal assignments merged into the quotient (empty if
  /// no assignments were supplied).
  Assignments assignments;
  /// False if some ε merge violated the Figure-3 rules for an existing
  /// state signal; `assignments` then holds best-effort values and the
  /// caller (determine_input_set) must reject the hiding.
  bool assignments_consistent = true;
};

/// Quotient of `g` by the signals marked in `hide` (indexed by SignalId;
/// silent edges are always contracted).  `assigns`, if given, must index
/// the states of `g`.
Projection hide_signals(const StateGraph& g, const util::BitVec& hide,
                        const Assignments* assigns = nullptr);

/// Contract only the silent (ε / dummy) edges of a graph; a graph without
/// any comes back unchanged.
StateGraph contract_silent(const StateGraph& g);

}  // namespace mps::sg
