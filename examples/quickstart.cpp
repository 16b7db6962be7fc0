// Quickstart: specify a small asynchronous controller as an STG, run the
// modular partitioning synthesis, and print the resulting next-state logic.
//
//   $ ./quickstart
//
// The controller is the classic two-pulse cycle (the paper's vbe-ex1
// shape): outputs x and y pulse alternately, which violates complete state
// coding — the state after x's pulse and the state before it carry the
// same code.  Synthesis inserts one state signal to distinguish them.
#include <cstdio>

#include "mps.hpp"

int main() {
  using namespace mps;

  // 1. Build the specification.  The same STG can be written in the .g
  //    interchange format and loaded with stg::parse_g / parse_g_file.
  const stg::Stg spec = stg::Builder("quickstart")
                            .outputs({"x", "y"})
                            .path("x+", "x-", "y+", "y-")
                            .arc("y-", "x+")
                            .token("y-", "x+")  // initial token: x+ fires first
                            .build();
  std::printf("specification (.g format):\n%s\n", stg::write_g(spec).c_str());

  // 2. Inspect the state graph: 4 states, one CSC conflict.
  const sg::StateGraph g = sg::StateGraph::from_stg(spec);
  const auto analysis = sg::analyze_csc(g);
  std::printf("state graph: %zu states, %zu edges, %zu CSC conflict pair(s)\n\n",
              g.num_states(), g.num_edges(), analysis.conflicts.size());

  // 3. Synthesize.
  const core::SynthesisResult result = core::modular_synthesis(spec);
  if (!result.success) {
    std::printf("synthesis failed: %s\n", result.failure_reason.c_str());
    return 1;
  }
  std::printf("synthesis: %zu -> %zu states, %zu -> %zu signals, %zu literals, %.3fs\n",
              result.initial_states, result.final_states, result.initial_signals,
              result.final_signals, result.total_literals, result.seconds);

  // 4. Print the logic: one sum-of-products cover per non-input signal.
  std::vector<std::string> names;
  for (sg::SignalId s = 0; s < result.final_graph.num_signals(); ++s) {
    names.push_back(result.final_graph.signal(s).name);
  }
  std::printf("\nnext-state functions:\n");
  for (const auto& [name, cover] : result.covers) {
    std::printf("  %-5s = %s\n", name.c_str(), cover.to_expression(names).c_str());
  }

  // 5. Verify: consistency, CSC, semi-modularity, the covers against the
  //    next-state functions, and the speed-independence of their netlist.
  const auto report = verify::verify_synthesis(result.final_graph, result.covers);
  std::printf("\nverification: %s\n", report.ok() ? "all checks passed" : "FAILED");
  for (const auto& issue : report.issues) std::printf("  issue: %s\n", issue.c_str());
  return report.ok() ? 0 : 1;
}
