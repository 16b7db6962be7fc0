// State-graph expansion (§3.5): realize inserted state signals as real
// transitions.  Each state whose assignment is Up (resp. Down) splits into
// a 0-phase and a 1-phase connected by n+ (resp. n-); original transitions
// into a state with a *stable* target value are only enabled from the
// matching phase — this is what serializes the inserted transition against
// its "trigger" and preserves semi-modularity.
#pragma once

#include <vector>

#include "sg/assignments.hpp"
#include "sg/state_graph.hpp"

namespace mps::sg {

struct Expansion {
  /// Expanded graph: signals = original signals followed by the inserted
  /// state signals (non-input).
  StateGraph graph;
  /// expanded state -> originating state of the source graph.
  std::vector<StateId> origin;
};

/// Expand `g` with the inserted signals of `assigns`.  Requires
/// assigns.check_coherence(g) to pass; throws util::SemanticsError
/// otherwise.  With an empty `assigns` this is a copy.
/// `check_consistency` runs the O(V·E) structural self-check on the result;
/// baseline flows that re-expand in a tight insertion loop pass false
/// (construction guarantees the invariants, the check is defense in depth).
Expansion expand(const StateGraph& g, const Assignments& assigns,
                 bool check_consistency = true);

/// Semi-modularity (§2): no enabled non-input transition is disabled by the
/// firing of another transition.  Input signals may be disabled by other
/// *inputs* (environment choice) without violating speed independence, so
/// such pairs are ignored.  Returns the offending (state, disabled signal)
/// pairs (empty = OK).
std::vector<std::pair<StateId, SignalId>> semi_modularity_violations(const StateGraph& g);

}  // namespace mps::sg
