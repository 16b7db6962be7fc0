#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>

#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "logic/extract.hpp"
#include "logic/minimize.hpp"
#include "sg/expand.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"
#include "verify/verify.hpp"

namespace {

using namespace mps;
using sg::V4;

stg::Stg toggle_stg() {
  return stg::Builder("toggle")
      .outputs({"x", "y"})
      .path("x+", "x-", "y+", "y-")
      .arc("y-", "x+")
      .token("y-", "x+")
      .build();
}

bool has_issue(const verify::Report& report, const std::string& issue) {
  return std::find(report.issues.begin(), report.issues.end(), issue) != report.issues.end();
}

stg::Stg handshake_stg() {
  return stg::Builder("hs")
      .inputs({"r"})
      .outputs({"a"})
      .path("r+", "a+", "r-", "a-")
      .arc("a-", "r+")
      .token("a-", "r+")
      .build();
}

TEST(Verify, CleanGraphWithoutCoversPasses) {
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  const auto report = verify::verify_synthesis(g, {});
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? "" : report.issues.front());
}

TEST(Verify, CscViolationReported) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto report = verify::verify_synthesis(g, {});
  EXPECT_TRUE(report.codes_consistent);
  EXPECT_FALSE(report.csc_satisfied);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.issues.empty());
}

TEST(Verify, FullSynthesisResultPasses) {
  const auto r = core::modular_synthesis(toggle_stg());
  ASSERT_TRUE(r.success);
  const auto report = verify::verify_synthesis(r.final_graph, r.covers);
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? "" : report.issues.front());
  // The report keeps the netlist its gate-level check ran on.
  ASSERT_TRUE(report.circuit.has_value());
  EXPECT_EQ(report.circuit->num_gates(), r.covers.size());
  EXPECT_TRUE(report.si.ok());
}

TEST(Verify, MissingCoverFlagged) {
  const auto r = core::modular_synthesis(toggle_stg());
  ASSERT_TRUE(r.success);
  auto covers = r.covers;
  covers.pop_back();
  const auto report = verify::verify_synthesis(r.final_graph, covers);
  EXPECT_FALSE(report.covers_valid);
}

TEST(Verify, WrongCoverFlagged) {
  const auto r = core::modular_synthesis(toggle_stg());
  ASSERT_TRUE(r.success);
  auto covers = r.covers;
  // Corrupt one cover: make it the constant-1 function.
  covers[0].second = logic::Cover(r.final_graph.num_signals());
  covers[0].second.add(logic::Cube(r.final_graph.num_signals()));
  const auto report = verify::verify_synthesis(r.final_graph, covers);
  EXPECT_FALSE(report.covers_valid);
  EXPECT_TRUE(has_issue(report, "cover of " + covers[0].first + " violates its ON/OFF spec"));
}

TEST(Verify, CoverWrongOnOneReachableCodeFlagged) {
  // Drop a cube that alone covers exactly one reachable code: the cover
  // then misses a single ON minterm, and the per-state check must see it.
  const auto r = core::modular_synthesis(benchmarks::find_benchmark("pa")->make());
  ASSERT_TRUE(r.success);
  const sg::StateGraph& g = r.final_graph;
  for (std::size_t i = 0; i < r.covers.size(); ++i) {
    const logic::Cover& cover = r.covers[i].second;
    for (std::size_t drop = 0; drop < cover.size(); ++drop) {
      logic::Cover dropped(cover.num_vars());
      for (std::size_t c = 0; c < cover.size(); ++c) {
        if (c != drop) dropped.add(cover.cubes()[c]);
      }
      std::unordered_set<std::string> missed;
      for (sg::StateId st = 0; st < g.num_states(); ++st) {
        if (cover.covers_code(g.code_words(st)) != dropped.covers_code(g.code_words(st))) {
          missed.insert(g.code(st).to_string());
        }
      }
      if (missed.size() != 1) continue;
      auto covers = r.covers;
      covers[i].second = dropped;
      const auto report = verify::verify_synthesis(g, covers);
      EXPECT_FALSE(report.covers_valid);
      EXPECT_FALSE(report.ok());
      EXPECT_TRUE(has_issue(report, "cover of " + covers[i].first + " violates its ON/OFF spec"));
      return;
    }
  }
  FAIL() << "no pa cube alone covers exactly one reachable code";
}

TEST(Verify, WrongArityCoverIsReportedNotAborted) {
  const auto r = core::modular_synthesis(benchmarks::find_benchmark("atod")->make());
  ASSERT_TRUE(r.success);
  const std::size_t n = r.final_graph.num_signals();
  auto covers = r.covers;
  covers[0].second = logic::Cover(n - 1);
  covers[0].second.add(logic::Cube(n - 1));
  const auto report = verify::verify_synthesis(r.final_graph, covers);
  EXPECT_FALSE(report.covers_valid);
  EXPECT_FALSE(report.circuit_ok);
  EXPECT_FALSE(report.circuit.has_value());
  EXPECT_TRUE(has_issue(report, "cover of " + covers[0].first + " has " +
                                    std::to_string(n - 1) + " variables, the graph " +
                                    std::to_string(n) + " signals"));
  // build_netlist rejects the arity too; its message is the last issue.
  ASSERT_FALSE(report.issues.empty());
  EXPECT_EQ(report.issues.back().rfind("circuit: ", 0), 0u) << report.issues.back();
}

TEST(ExpansionSimulates, HoldsForRealExpansion) {
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  EXPECT_TRUE(verify::expansion_simulates(g, ex.graph, ex.origin));
}

TEST(ExpansionSimulates, DetectsMissingBehaviour) {
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  auto ex = sg::expand(g, assigns);
  // Truncate: remove all outgoing edges of one expanded state.
  sg::StateGraph broken(std::vector<sg::SignalInfo>(ex.graph.signals()));
  for (sg::StateId s = 0; s < ex.graph.num_states(); ++s) {
    broken.add_state(ex.graph.code(s));
  }
  for (sg::StateId s = 0; s + 1 < ex.graph.num_states(); ++s) {
    for (const auto& e : ex.graph.out(s)) broken.add_edge(s, e);
  }
  broken.seal();
  EXPECT_FALSE(verify::expansion_simulates(g, broken, ex.origin));
}

TEST(ExpansionSimulates, DetectsSingleDroppedOriginalEdge) {
  // Drop exactly one non-silent original-signal edge: the expansion no
  // longer simulates the original behaviour.
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  bool dropped = false;
  sg::StateGraph broken(std::vector<sg::SignalInfo>(ex.graph.signals()));
  for (sg::StateId s = 0; s < ex.graph.num_states(); ++s) {
    broken.add_state(ex.graph.code(s));
  }
  for (sg::StateId s = 0; s < ex.graph.num_states(); ++s) {
    for (const auto& e : ex.graph.out(s)) {
      if (!dropped && !e.is_silent() && e.sig < g.num_signals()) {
        dropped = true;
        continue;
      }
      broken.add_edge(s, e);
    }
  }
  broken.seal();
  ASSERT_TRUE(dropped);
  EXPECT_FALSE(verify::expansion_simulates(g, broken, ex.origin));
}

TEST(ExpansionSimulates, DetectsExtraNonInsertedEdge) {
  // Splice in an original-signal edge the original graph never had (a
  // spurious a- from the initial state): extra non-inserted behaviour
  // must be rejected, not just missing behaviour.
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  sg::StateGraph broken(std::vector<sg::SignalInfo>(ex.graph.signals()));
  for (sg::StateId s = 0; s < ex.graph.num_states(); ++s) {
    broken.add_state(ex.graph.code(s));
  }
  for (sg::StateId s = 0; s < ex.graph.num_states(); ++s) {
    for (const auto& e : ex.graph.out(s)) broken.add_edge(s, e);
  }
  const sg::SignalId a = g.find_signal("a");
  sg::StateId from = sg::kNoState, to = sg::kNoState;
  for (sg::StateId s = 0; s < ex.graph.num_states() && to == sg::kNoState; ++s) {
    for (const auto& e : ex.graph.out(s)) {
      if (e.sig == a && e.rise) {
        from = e.to;  // a is 1 here, so a- is codable
        // Reuse the a+ edge's source as the bogus target: codes differ
        // exactly in signal a, matching a fall of a.
        to = s;
      }
    }
  }
  ASSERT_NE(to, sg::kNoState);
  broken.add_edge(from, {a, /*rise=*/false, to});
  broken.seal();
  EXPECT_FALSE(verify::expansion_simulates(g, broken, ex.origin));
}

TEST(ExpansionSimulates, DetectsWrongOriginMapping) {
  // Right-sized origin vector pointing at the wrong original states.
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  ASSERT_TRUE(verify::expansion_simulates(g, ex.graph, ex.origin));
  auto wrong = ex.origin;
  wrong[0] = (wrong[0] + 1) % g.num_states();
  EXPECT_FALSE(verify::expansion_simulates(g, ex.graph, wrong));
}

TEST(ExpansionSimulates, RejectsSizeMismatch) {
  const auto g = sg::StateGraph::from_stg(handshake_stg());
  const auto ex = sg::expand(g, sg::Assignments(g.num_states()));
  std::vector<sg::StateId> wrong_origin(ex.origin.begin(), ex.origin.end() - 1);
  EXPECT_FALSE(verify::expansion_simulates(g, ex.graph, wrong_origin));
}

TEST(ExpansionSimulates, WholeSynthesisPreservesBehaviour) {
  // Run the pieces manually so the origin map is available.
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(g, opts);
  ASSERT_TRUE(r.success);
  // Re-derive the expansion from the final graph's origin: instead,
  // verify the final graph projects back onto the original signal set.
  util::BitVec hide(r.final_graph.num_signals());
  for (sg::SignalId s = g.num_signals(); s < r.final_graph.num_signals(); ++s) hide.set(s);
  const auto proj = sg::hide_signals(r.final_graph, hide);
  // The quotient by the inserted signals is exactly the original graph
  // (same state count, edges and codes) for this small example.
  EXPECT_EQ(proj.graph.num_states(), g.num_states());
  EXPECT_EQ(proj.graph.num_edges(), g.num_edges());
}

}  // namespace
