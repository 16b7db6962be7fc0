// Event-driven gate-level verification under the unbounded-delay
// (speed-independent) model, in the spirit of Verbeek & Schmaltz: verify
// the building blocks we emit rather than assuming them.
//
// The circuit is composed with the *mirror environment* of the
// specification state graph: the environment fires exactly the input
// transitions the spec enables, and observes every output transition the
// circuit produces.  A breadth-first search over the composed state space
// (spec state × all wire values, internal nodes included) checks:
//
//   * conformance — every output transition a gate produces is enabled by
//     the spec in the tracked spec state (and advances it);
//   * hazard-freedom — gate-level semi-modularity: no gate that is excited
//     (its evaluated function differs from its output wire) becomes
//     unexcited through the firing of anything else.  Disablings the
//     *specification itself* performs (environment/output choice, as
//     sg::semi_modularity_violations lets inputs disable inputs) are
//     sanctioned: the verifier localizes hazards *introduced by the gate
//     implementation*;
//   * quiescence — no composed state is circuit-quiescent while the spec
//     still requires an output transition.
//
// All three checks always run.  The search explores at most kSiMaxStates
// composed states; beyond that the result is incomplete (never a silent
// pass on a truncated search).  On failure the result carries a
// counterexample: the transition trace from the initial state to the
// violation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"

namespace mps::netlist {

/// Composed-state budget of one verification.
inline constexpr std::size_t kSiMaxStates = 1u << 20;

struct SiResult {
  bool bound = false;         ///< every spec signal maps onto a wire correctly
  bool conforms = false;      ///< no unspecified output transition
  bool hazard_free = false;   ///< gate-level semi-modularity
  bool quiescence_ok = false; ///< no premature quiescence
  bool complete = false;      ///< search finished within kSiMaxStates
  std::size_t states_explored = 0;
  std::vector<std::string> issues;
  /// Transition labels from the initial composed state to the first
  /// violation ("a+", "set_x-", ...); empty when ok() or for binding
  /// failures.
  std::vector<std::string> trace;

  bool ok() const { return bound && conforms && hazard_free && quiescence_ok && complete; }
};

/// Verify `n` against `spec` (a final, silent-edge-free state graph).
/// Wires are bound to spec signals by sanitize_name()d name.
SiResult verify_speed_independence(const Netlist& n, const sg::StateGraph& spec);

}  // namespace mps::netlist
