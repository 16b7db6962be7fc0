// Modular state graph generation (§3.3): project the complete graph onto
// the input set of an output, carrying existing state-signal assignments
// through the Figure-3 merge rules, and locate the module's CSC conflicts.
#pragma once

#include <utility>
#include <vector>

#include "core/input_set.hpp"
#include "sg/csc.hpp"
#include "sg/projection.hpp"

namespace mps::core {

struct ModuleGraph {
  sg::Projection proj;   ///< quotient graph + cover map + merged assignments
  sg::SignalId focus;    ///< the output o, remapped into module signal space
  /// CSC conflicts of the module (focused on `focus`, accounting for the
  /// carried state signals).
  std::vector<std::pair<sg::StateId, sg::StateId>> conflicts;
  /// Code-equal compatible pairs of the module (constrained, not separated).
  std::vector<std::pair<sg::StateId, sg::StateId>> compatible_pairs;
  int lower_bound = 0;
};

/// Build the module for output `o` given the input-set decision: the
/// projection of `g` onto `input_set.kept`, carrying the global state-signal
/// assignments `assigns` named by `kept_state_signals`.  Its conflicts are
/// left empty when the hiding merges states with inconsistent state-signal
/// values (`proj.assignments_consistent` false, a Fig. 3 violation).
ModuleGraph build_module(const sg::StateGraph& g, sg::SignalId o, const InputSetResult& input_set,
                         const sg::Assignments& assigns);

/// The CSC analysis of a module projection: `proj.graph` focused on the
/// original output `o`, with `assigns` (indexed by `proj`'s states) as the
/// carried state signals.  Shared by build_module and the greedy hiding of
/// determine_input_set.
sg::CscResult analyze_module(const sg::Projection& proj, sg::SignalId o,
                             const sg::Assignments& assigns);

}  // namespace mps::core
