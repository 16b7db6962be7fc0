// Gate-level netlist backend: IR structure, builder mappings, Verilog
// round-trip, and the speed-independence verifier — including that it
// *finds* planted conformance violations and hazards, not only that it
// passes good circuits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/synthesis.hpp"
#include "netlist/build.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "netlist/verify_si.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"
#include "util/common.hpp"

namespace {

using namespace mps;

stg::Stg handshake_stg() {
  return stg::Builder("hs")
      .inputs({"r"})
      .outputs({"a"})
      .path("r+", "a+", "r-", "a-")
      .arc("a-", "r+")
      .token("a-", "r+")
      .build();
}

/// The C-element specification: inputs a and b rise concurrently, c rises
/// after both; they fall concurrently, c falls after both.
stg::Stg celement_stg() {
  return stg::Builder("cel")
      .inputs({"a", "b"})
      .outputs({"c"})
      .arc("a+", "c+")
      .arc("b+", "c+")
      .arc("c+", "a-")
      .arc("c+", "b-")
      .arc("a-", "c-")
      .arc("b-", "c-")
      .arc("c-", "a+")
      .arc("c-", "b+")
      .token("c-", "a+")
      .token("c-", "b+")
      .build();
}

/// Synthesize and return (final graph, covers) of a spec.
std::pair<sg::StateGraph, std::vector<std::pair<std::string, logic::Cover>>> synth(
    const stg::Stg& spec) {
  auto r = core::modular_synthesis(sg::StateGraph::from_stg(spec));
  EXPECT_TRUE(r.success) << r.failure_reason;
  return {std::move(r.final_graph), std::move(r.covers)};
}

TEST(Netlist, ComplexGateBuildFromSynthesis) {
  const auto [g, covers] = synth(handshake_stg());
  const auto n = netlist::build_netlist(g, covers);
  std::size_t non_inputs = 0;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (!g.is_input(s)) ++non_inputs;
  }
  EXPECT_EQ(n.num_gates(), non_inputs);  // one complex gate per output
  EXPECT_EQ(n.num_wires(), g.num_signals());
  EXPECT_GT(n.total_literals(), 0u);
  EXPECT_GT(n.transistor_estimate(), 0u);
  EXPECT_NO_THROW(n.check());
}

TEST(Netlist, StandardCBuildAddsLatchesAndInternalNodes) {
  const auto [g, covers] = synth(handshake_stg());
  netlist::BuildNetlistOptions opts;
  opts.mapping = netlist::Mapping::kStandardC;
  const auto n = netlist::build_netlist(g, covers, opts);
  std::size_t latches = 0, sops = 0, internal = 0;
  for (const auto& gate : n.gates()) {
    (gate.kind == netlist::GateKind::kC ? latches : sops) += 1;
  }
  for (const auto& w : n.wires()) {
    if (w.role == netlist::WireRole::kInternal) ++internal;
  }
  EXPECT_GT(latches, 0u);
  EXPECT_EQ(sops, 2 * latches);      // one set and one reset network per latch
  EXPECT_EQ(internal, 2 * latches);  // their output nodes
  EXPECT_NO_THROW(n.check());
}

TEST(Netlist, TransistorEstimateCountsInverterSharing) {
  // c = ~a alone is one inverter: 2 transistors (no input-inverter charge
  // because the gate itself is the inverter... the complemented-fanin
  // charge applies, making 4 total: documented estimate, not a layout).
  netlist::Netlist n("inv");
  const auto a = n.add_wire({"a", netlist::WireRole::kInput});
  const auto c = n.add_wire({"c", netlist::WireRole::kOutput});
  netlist::Gate g;
  g.kind = netlist::GateKind::kSop;
  g.out = c;
  g.fanins = {a};
  logic::Cover fn(1);
  {
    logic::Cube cube(1);
    cube.set_literal(0, false);
    fn.add(cube);
  }
  g.fn = fn;
  n.add_gate(g);
  EXPECT_EQ(n.transistor_estimate(), 2u + 2u);
  EXPECT_EQ(n.total_literals(), 1u);
}

TEST(Netlist, CheckRejectsDoubleDriverAndUndrivenOutput) {
  netlist::Netlist n("bad");
  n.add_wire({"a", netlist::WireRole::kInput});
  n.add_wire({"c", netlist::WireRole::kOutput});
  EXPECT_THROW(n.check(), util::SemanticsError);  // c undriven
}

// --- Verilog ------------------------------------------------------------

TEST(Verilog, WriteParseWriteIsIdentity) {
  for (const bool standard_c : {false, true}) {
    const auto [g, covers] = synth(celement_stg());
    netlist::BuildNetlistOptions opts;
    opts.mapping =
        standard_c ? netlist::Mapping::kStandardC : netlist::Mapping::kComplexGate;
    const auto n = netlist::build_netlist(g, covers, opts);
    const std::string once = netlist::write_verilog(n);
    const auto reparsed = netlist::parse_verilog(once);
    EXPECT_EQ(netlist::write_verilog(reparsed), once) << "standard_c=" << standard_c;
    EXPECT_EQ(reparsed.num_gates(), n.num_gates());
    EXPECT_EQ(reparsed.num_wires(), n.num_wires());
    EXPECT_EQ(reparsed.total_literals(), n.total_literals());
    EXPECT_EQ(reparsed.transistor_estimate(), n.transistor_estimate());
  }
}

TEST(Verilog, ParsedNetlistStillVerifies) {
  const auto [g, covers] = synth(handshake_stg());
  const auto n = netlist::parse_verilog(netlist::write_verilog(netlist::build_netlist(g, covers)));
  const auto si = netlist::verify_speed_independence(n, g);
  EXPECT_TRUE(si.ok()) << (si.issues.empty() ? "" : si.issues.front());
}

TEST(Verilog, ParserRejectsGarbage) {
  EXPECT_THROW(netlist::parse_verilog("modul x (); endmodule"), util::ParseError);
  EXPECT_THROW(netlist::parse_verilog("module x (a);\n input a;\n"), util::ParseError);
  EXPECT_THROW(netlist::parse_verilog("module x (a);\n  input a;\n  assign q = a;\n"
                                      "endmodule\n"),
               util::SemanticsError);  // q undeclared
  EXPECT_THROW(netlist::parse_verilog("module x (a);\n  input a;\n  output c;\n"
                                      "  assign c = a |;\nendmodule\n"),
               util::ParseError);
}

TEST(Verilog, ConstantFunctionsRoundTrip) {
  netlist::Netlist n("consts");
  const auto z = n.add_wire({"z", netlist::WireRole::kOutput});
  const auto o = n.add_wire({"o", netlist::WireRole::kOutput});
  netlist::Gate gz;
  gz.kind = netlist::GateKind::kSop;
  gz.out = z;
  gz.fn = logic::Cover(0);
  n.add_gate(gz);
  netlist::Gate go;
  go.kind = netlist::GateKind::kSop;
  go.out = o;
  logic::Cover one(0);
  one.add(logic::Cube(static_cast<std::size_t>(0)));
  go.fn = one;
  n.add_gate(go);
  const std::string text = netlist::write_verilog(n);
  EXPECT_NE(text.find("1'b0"), std::string::npos);
  EXPECT_NE(text.find("1'b1"), std::string::npos);
  EXPECT_EQ(netlist::write_verilog(netlist::parse_verilog(text)), text);
}

// --- speed-independence verifier ---------------------------------------

TEST(VerifySi, ComplexGateHandshakeIsSpeedIndependent) {
  const auto [g, covers] = synth(handshake_stg());
  const auto n = netlist::build_netlist(g, covers);
  const auto si = netlist::verify_speed_independence(n, g);
  EXPECT_TRUE(si.ok()) << (si.issues.empty() ? "" : si.issues.front());
  EXPECT_GT(si.states_explored, 0u);
  EXPECT_TRUE(si.trace.empty());
}

TEST(VerifySi, StandardCCelementIsSpeedIndependent) {
  const auto [g, covers] = synth(celement_stg());
  netlist::BuildNetlistOptions opts;
  opts.mapping = netlist::Mapping::kStandardC;
  const auto n = netlist::build_netlist(g, covers, opts);
  const auto si = netlist::verify_speed_independence(n, g);
  EXPECT_TRUE(si.ok()) << (si.issues.empty() ? "" : si.issues.front());
}

TEST(VerifySi, DetectsNonConformingGate) {
  // Implement the handshake's output as a = ~r: fires a+ immediately in
  // the initial state, which the spec does not enable.
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  netlist::Netlist n("broken");
  const auto r = n.add_wire({"r", netlist::WireRole::kInput});
  const auto a = n.add_wire({"a", netlist::WireRole::kOutput});
  netlist::Gate gate;
  gate.kind = netlist::GateKind::kSop;
  gate.out = a;
  gate.fanins = {r};
  logic::Cover fn(1);
  logic::Cube cube(1);
  cube.set_literal(0, false);
  fn.add(cube);
  gate.fn = fn;
  n.add_gate(gate);

  const auto si = netlist::verify_speed_independence(n, g);
  EXPECT_FALSE(si.ok());
  EXPECT_FALSE(si.conforms);
  EXPECT_EQ(si.trace, (std::vector<std::string>{"a+"}));
  ASSERT_FALSE(si.issues.empty());
  EXPECT_EQ(si.issues.front(), "circuit fires a+ which the specification does not enable here");
}

TEST(VerifySi, DetectsHazardOnInternalNode) {
  // Correct majority gate for c, plus an internal node e = a & ~b that a
  // concurrent b+ disables while excited: a gate-level hazard the spec
  // never sanctions.
  const auto g = sg::StateGraph::from_stg(celement_stg());
  netlist::Netlist n("hazardous");
  const auto a = n.add_wire({"a", netlist::WireRole::kInput});
  const auto b = n.add_wire({"b", netlist::WireRole::kInput});
  const auto c = n.add_wire({"c", netlist::WireRole::kOutput});
  const auto e = n.add_wire({"e", netlist::WireRole::kInternal});

  netlist::Gate maj;
  maj.kind = netlist::GateKind::kSop;
  maj.out = c;
  maj.fanins = {a, b, c};
  logic::Cover fn(3);
  for (const auto& [x, y] : {std::pair{0, 1}, {0, 2}, {1, 2}}) {
    logic::Cube cube(3);
    cube.set_literal(x, true);
    cube.set_literal(y, true);
    fn.add(cube);
  }
  maj.fn = fn;
  n.add_gate(maj);

  netlist::Gate junk;
  junk.kind = netlist::GateKind::kSop;
  junk.out = e;
  junk.fanins = {a, b};
  logic::Cover efn(2);
  logic::Cube ecube(2);
  ecube.set_literal(0, true);
  ecube.set_literal(1, false);
  efn.add(ecube);
  junk.fn = efn;
  n.add_gate(junk);

  const auto si = netlist::verify_speed_independence(n, g);
  EXPECT_FALSE(si.ok());
  EXPECT_FALSE(si.hazard_free);
  EXPECT_EQ(si.trace, (std::vector<std::string>{"a+", "b+"}));
  ASSERT_FALSE(si.issues.empty());
  EXPECT_EQ(si.issues.front(),
            "hazard: gate driving e excited then disabled by b+ (composed state 1)");
}

TEST(VerifySi, DetectsPrematureQuiescence) {
  // c stuck at constant 0: after a+ and b+ the spec requires c+, but no
  // gate is excited.
  const auto g = sg::StateGraph::from_stg(celement_stg());
  netlist::Netlist n("stuck");
  n.add_wire({"a", netlist::WireRole::kInput});
  n.add_wire({"b", netlist::WireRole::kInput});
  const auto c = n.add_wire({"c", netlist::WireRole::kOutput});
  netlist::Gate gate;
  gate.kind = netlist::GateKind::kSop;
  gate.out = c;
  gate.fn = logic::Cover(0);  // constant 0
  n.add_gate(gate);

  const auto si = netlist::verify_speed_independence(n, g);
  EXPECT_FALSE(si.ok());
  EXPECT_FALSE(si.quiescence_ok);
  EXPECT_EQ(si.trace, (std::vector<std::string>{"a+", "b+"}));
  ASSERT_FALSE(si.issues.empty());
  EXPECT_EQ(si.issues.front(), "circuit is quiescent but the spec still requires c+");
}

TEST(VerifySi, ReportsBindingFailures) {
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  netlist::Netlist n("empty");
  const auto si = netlist::verify_speed_independence(n, g);
  EXPECT_FALSE(si.ok());
  EXPECT_FALSE(si.bound);
  EXPECT_FALSE(si.issues.empty());
}

TEST(VerifySi, SetResetSpecsAreMonotonicCovers) {
  // Handshake codes for a: ER(a+)={r1 a0}, ER(a-)={r0 a1}, and two
  // quiescent codes.  The set spec must leave QR(a+) (a stable at 1) as a
  // don't-care so the minimized set network can stay high after a+ fires
  // — the monotonic-cover condition — and dually for reset.
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  const sg::SignalId a = g.find_signal("a");
  ASSERT_FALSE(g.is_input(a));
  const auto [set_spec, reset_spec] = netlist::extract_set_reset(g, a);
  ASSERT_EQ(set_spec.on.size(), 1u);
  ASSERT_EQ(reset_spec.on.size(), 1u);
  EXPECT_FALSE(set_spec.on[0].test(a));
  EXPECT_TRUE(reset_spec.on[0].test(a));
  // 4 reachable codes; each spec lists 3 (its own QR is don't-care).
  EXPECT_EQ(set_spec.on.size() + set_spec.off.size(), 3u);
  EXPECT_EQ(reset_spec.on.size() + reset_spec.off.size(), 3u);
  for (const auto& code : set_spec.off) {
    EXPECT_TRUE(!code.test(a) || code == reset_spec.on[0]);  // QR(a+) absent
  }
  for (const auto& code : reset_spec.off) {
    EXPECT_TRUE(code.test(a) || code == set_spec.on[0]);  // QR(a-) absent
  }
}

}  // namespace
