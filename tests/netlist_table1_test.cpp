// The acceptance gate of the netlist backend: on every Table-1 benchmark
// the modular method's complex-gate netlist conforms to its final state
// graph and is hazard-free under unbounded gate delays, and the emitted
// Verilog round-trips through the reader byte-identically.  Runs all 23
// modular syntheses, so it lives in the `slow` suite.
#include <gtest/gtest.h>

#include <iterator>

#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "netlist/build.hpp"
#include "netlist/verilog.hpp"
#include "netlist/verify_si.hpp"
#include "sg/state_graph.hpp"

namespace {

using namespace mps;

struct SiPin {
  const char* name;
  std::size_t states_explored;  ///< composed states of the SI search
};

// In table order.  The SI search visits composed states breadth-first, so
// the count pins the search's state space, not just its verdict.
constexpr SiPin kSiPins[] = {
    {"mr0", 1094},
    {"mr1", 554},
    {"mmu0", 554},
    {"mmu1", 170},
    {"sbuf-ram-write", 105},
    {"vbe4a", 157},
    {"nak-pa", 143},
    {"pe-rcv-ifc-fc", 85},
    {"ram-read-sbuf", 87},
    {"alex-nonfc", 56},
    {"sbuf-send-pkt2", 64},
    {"sbuf-send-ctl", 40},
    {"atod", 38},
    {"pa", 38},
    {"alloc-outbound", 28},
    {"wrdata", 38},
    {"fifo", 43},
    {"sbuf-read-ctl", 23},
    {"nouse", 20},
    {"vbe-ex2", 12},
    {"nousc-ser", 10},
    {"sendr-done", 16},
    {"vbe-ex1", 6},
};

TEST(NetlistTable1, ModularNetlistsVerifyAndRoundTripOnAllBenchmarks) {
  const auto& suite = benchmarks::table1_benchmarks();
  ASSERT_EQ(suite.size(), std::size(kSiPins));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& b = suite[i];
    ASSERT_EQ(b.name, kSiPins[i].name);
    const auto r = core::modular_synthesis(sg::StateGraph::from_stg(b.make()));
    ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;

    const auto n = netlist::build_netlist(r.final_graph, r.covers);
    EXPECT_GT(n.num_gates(), 0u) << b.name;

    const auto si = netlist::verify_speed_independence(n, r.final_graph);
    EXPECT_TRUE(si.ok()) << b.name << ": "
                         << (si.issues.empty() ? "(no issue)" : si.issues.front());
    EXPECT_EQ(si.states_explored, kSiPins[i].states_explored) << b.name;

    const std::string text = netlist::write_verilog(n);
    EXPECT_EQ(netlist::write_verilog(netlist::parse_verilog(text)), text) << b.name;
  }
}

}  // namespace
