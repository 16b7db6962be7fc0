// The acceptance gate of the netlist backend: on every Table-1 benchmark
// the modular method's complex-gate netlist conforms to its final state
// graph and is hazard-free under unbounded gate delays, and the emitted
// Verilog round-trips through the reader byte-identically.  Runs all 23
// modular syntheses, so it lives in the `slow` suite.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "netlist/build.hpp"
#include "netlist/verilog.hpp"
#include "netlist/verify_si.hpp"
#include "sg/state_graph.hpp"

namespace {

using namespace mps;

TEST(NetlistTable1, ModularNetlistsVerifyAndRoundTripOnAllBenchmarks) {
  for (const auto& b : benchmarks::table1_benchmarks()) {
    const auto r = core::modular_synthesis(sg::StateGraph::from_stg(b.make()));
    ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;

    const auto n = netlist::build_netlist(r.final_graph, r.covers);
    EXPECT_GT(n.num_gates(), 0u) << b.name;

    const auto si = netlist::verify_speed_independence(n, r.final_graph);
    EXPECT_TRUE(si.ok()) << b.name << ": "
                         << (si.issues.empty() ? "(no issue)" : si.issues.front());

    const std::string text = netlist::write_verilog(n);
    EXPECT_EQ(netlist::write_verilog(netlist::parse_verilog(text)), text) << b.name;
  }
}

}  // namespace
