// Map minimized covers onto gates.  Two mappings:
//
//   * kComplexGate (default) — each non-input signal becomes one atomic
//     SOP complex gate computing its next-state function, with feedback
//     from its own output as an ordinary fanin.  For a semi-modular,
//     CSC-satisfying state graph this implementation is speed-independent
//     by the classical complex-gate argument; verify_speed_independence()
//     checks it rather than assuming it.
//   * kStandardC — each non-input signal becomes a standard-C latch whose
//     set (reset) network is a fresh SOP gate covering exactly the
//     excitation region ER(o+) (ER(o-)) and off on every other reachable
//     code; unreachable codes are don't-cares.  The decomposition
//     introduces real internal nodes, so gate-level hazards become
//     possible — that is the point: the verifier can now find them.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "logic/cover.hpp"
#include "logic/minimize.hpp"
#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"

namespace mps::netlist {

enum class Mapping { kComplexGate, kStandardC };

struct BuildNetlistOptions {
  Mapping mapping = Mapping::kComplexGate;
};

/// Build a netlist for the (final, CSC-satisfying) graph `g`.  `covers`
/// are the synthesis result's minimized next-state covers, one per
/// non-input signal, named to match the graph (the shape
/// core::modular_synthesis and both baselines produce).  Wire names are
/// sanitize_name()d signal names; kStandardC adds set_<o>/reset_<o>
/// internal wires.  Throws util::SemanticsError on a missing cover or a
/// cover/graph arity mismatch.
Netlist build_netlist(const sg::StateGraph& g,
                      const std::vector<std::pair<std::string, logic::Cover>>& covers,
                      const BuildNetlistOptions& opts = {});

/// The ER(s+)/ER(s-) set and reset specs of `s` over all graph signals
/// (exposed for tests): ON = codes where s is excited to rise (fall), OFF =
/// codes where s falls (rises) or is stable at 0 (1), one minterm per code
/// in code order.  Throws util::SemanticsError if two states share a code
/// but disagree — a CSC violation.
std::pair<logic::SopSpec, logic::SopSpec> extract_set_reset(const sg::StateGraph& g,
                                                            sg::SignalId s);
/// The same over `g`'s code index, built once by the caller for all signals.
std::pair<logic::SopSpec, logic::SopSpec> extract_set_reset(const sg::StateGraph& g,
                                                            sg::SignalId s,
                                                            const sg::CodeClasses& classes);

}  // namespace mps::netlist
