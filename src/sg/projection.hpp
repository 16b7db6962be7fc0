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
/// the states of `g`.  Hiding composes: hiding `s` on the quotient by H
/// gives the quotient by H ∪ {s}, classes numbered in the same order.
Projection hide_signals(const StateGraph& g, const util::BitVec& hide,
                        const Assignments* assigns = nullptr);

/// The quotient signal of the original signal `s`; `proj` must keep `s`.
SignalId kept_index(const Projection& proj, SignalId s);

/// Figure 3's per-edge rule, per label: entry `sig` is false when some
/// `sig`-labelled edge of `g` carries a value pair of some signal of
/// `assigns` that merge_pair_allowed rejects; the last entry (index
/// g.num_signals()) covers ε edges.  A hidden edge always ends inside one
/// class, so the verdict for a label does not depend on what else is
/// hidden.  Checked on `g`'s own values, never on merged ones: merging can
/// turn an allowed pair such as (0, 0) into a rejected one, (Up, 0).
std::vector<bool> mergeable_labels(const StateGraph& g, const Assignments& assigns);

/// Figure 3's class-level rules: append to `merged` (sized to the class
/// count) each signal of `assigns` merged over the classes of `state_map`.
/// Returns false when a class mixes Up and Down, or 0 and 1 without an
/// excitation; `merged` then holds best-effort values.  Merging a
/// consistent quotient again gives the values of the composed quotient.
bool merge_into_classes(const Assignments& assigns, const std::vector<StateId>& state_map,
                        Assignments* merged);

/// Contract only the silent (ε / dummy) edges of a graph; a graph without
/// any comes back unchanged.
StateGraph contract_silent(const StateGraph& g);

}  // namespace mps::sg
