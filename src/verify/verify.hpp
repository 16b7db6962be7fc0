// End-to-end verification of synthesis results: structural consistency,
// CSC, semi-modularity, the covers against the state graph's next-state
// functions, and the speed-independence of the netlist built from them.
// Used by svc::run_synthesis, the integration tests and the examples to
// demonstrate that results are checked, not assumed.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "logic/cover.hpp"
#include "netlist/verify_si.hpp"
#include "sg/state_graph.hpp"

namespace mps::verify {

struct Report {
  bool codes_consistent = false;  ///< consistent state assignment along edges
  bool csc_satisfied = false;     ///< no CSC conflicts
  bool semi_modular = false;      ///< no non-input transition ever disabled
  bool covers_valid = false;      ///< ON ⊆ cover ⊆ ¬OFF for every output
  /// Gate level: `si.ok()`, the speed-independence of the complex-gate
  /// netlist built from the covers; true when the checks are skipped.
  bool circuit_ok = false;
  std::vector<std::string> issues;
  /// The netlist the gate-level check ran on, and its verdict; nullopt when
  /// the check was skipped or build_netlist threw (then the last issue).
  std::optional<netlist::Netlist> circuit;
  netlist::SiResult si;

  bool ok() const {
    return codes_consistent && csc_satisfied && semi_modular && covers_valid && circuit_ok;
  }
};

/// Verify a (final, expanded) state graph and the covers synthesized from
/// it.  `covers` must contain one entry per non-input signal, named to
/// match the graph's signal names (order free); pass an empty vector to
/// skip the cover and gate-level checks (they then report true) on a graph
/// with outputs.  Emits one "verify.synthesis" span.
Report verify_synthesis(const sg::StateGraph& g,
                        const std::vector<std::pair<std::string, logic::Cover>>& covers);

/// Check that the expanded graph simulates the original: every original
/// edge is matched (modulo inserted-signal interleavings) from every
/// expanded state mapping to its source, and every non-inserted expanded
/// edge projects to an original edge.
bool expansion_simulates(const sg::StateGraph& original, const sg::StateGraph& expanded,
                         const std::vector<sg::StateId>& origin);

}  // namespace mps::verify
