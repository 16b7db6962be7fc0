// Service/library identity acceptance: for every Table-1 benchmark, the
// service path (svc::run_synthesis, which mps_serve and mps_synth both
// call) must agree with a direct library call (core::modular_synthesis
// with the same default_request_options) on every quality number, and the
// serialized artifact must survive a cache round trip byte-identically.
// The socket form of the "mps_client output == mps_synth output" contract
// (two benchmarks end to end) runs in tests/check_protocol.cmake.
#include <gtest/gtest.h>

#include "mps.hpp"

namespace {

using namespace mps;

TEST(SvcIdentity, ServicePathMatchesCliPathOnAllTable1Benchmarks) {
  for (const auto& b : benchmarks::table1_benchmarks()) {
    SCOPED_TRACE(b.name);
    const stg::Stg spec = b.make();

    // The library path: the method called directly, without the service.
    const svc::RequestOptions ropts = svc::default_request_options("modular");
    const sg::StateGraph g = sg::StateGraph::from_stg(spec);
    const auto cli = core::modular_synthesis(g, ropts.modular);

    // The service path: what mps_serve runs for a synth request, including
    // a round trip through the wire/cache serialization.
    const svc::Artifact direct = svc::run_synthesis(spec, ropts);
    const auto restored = svc::Artifact::deserialize(direct.serialize());
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->serialize(), direct.serialize());
    const svc::Artifact& a = *restored;

    ASSERT_EQ(a.success, cli.success);
    if (!cli.success) continue;
    EXPECT_EQ(a.initial_states, cli.initial_states);
    EXPECT_EQ(a.final_states, cli.final_states);
    EXPECT_EQ(a.initial_signals, cli.initial_signals);
    EXPECT_EQ(a.final_signals, cli.final_signals);
    EXPECT_EQ(a.literals, cli.total_literals);

    // Covers must match cube for cube (the PLA output is derived from
    // these, so equality here implies byte-identical PLA files).
    ASSERT_EQ(a.covers.size(), cli.covers.size());
    for (std::size_t i = 0; i < cli.covers.size(); ++i) {
      EXPECT_EQ(a.covers[i].first, cli.covers[i].first);
      const auto& cubes = cli.covers[i].second.cubes();
      ASSERT_EQ(a.covers[i].second.size(), cubes.size());
      for (std::size_t c = 0; c < cubes.size(); ++c) {
        EXPECT_EQ(a.covers[i].second[c], cubes[c].to_string());
      }
    }

    // And the Verilog the daemon ships is the Verilog mps_synth writes.
    const auto n = netlist::build_netlist(cli.final_graph, cli.covers);
    EXPECT_EQ(a.verilog, netlist::write_verilog(n));
    EXPECT_EQ(a.gates, n.num_gates());
    EXPECT_EQ(a.transistors, n.transistor_estimate());

    // The digest is a pure function of (spec, options): a second
    // computation — e.g. on the client side — lands on the same cache key.
    EXPECT_EQ(svc::request_digest(spec, ropts), svc::request_digest(spec, ropts));
  }
}

}  // namespace
