#include <gtest/gtest.h>

#include <algorithm>

#include "benchmarks/benchmarks.hpp"
#include "sg/csc.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"

namespace {

using namespace mps;
using sg::StateGraph;
using sg::V4;

/// The CSC-relevant excitation of `s`: its excited non-input signals.
util::BitVec excited_non_input(const StateGraph& g, sg::StateId s) {
  util::BitVec bits = g.excited(s);
  bits.and_not(g.input_mask());
  return bits;
}

stg::Stg toggle_stg() {
  return stg::Builder("toggle")
      .outputs({"x", "y"})
      .path("x+", "x-", "y+", "y-")
      .arc("y-", "x+")
      .token("y-", "x+")
      .build();
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

TEST(CeilLog2, Values) {
  EXPECT_EQ(sg::ceil_log2(1), 0);
  EXPECT_EQ(sg::ceil_log2(2), 1);
  EXPECT_EQ(sg::ceil_log2(3), 2);
  EXPECT_EQ(sg::ceil_log2(4), 2);
  EXPECT_EQ(sg::ceil_log2(5), 3);
  EXPECT_EQ(sg::ceil_log2(8), 3);
  EXPECT_EQ(sg::ceil_log2(9), 4);
}

TEST(Csc, HandshakeSatisfiesCsc) {
  const auto g = StateGraph::from_stg(handshake_stg());
  const auto a = sg::analyze_csc(g);
  EXPECT_TRUE(a.satisfied());
  EXPECT_EQ(a.num_usc_pairs, 0u);
  EXPECT_EQ(a.max_class_size, 1u);
  EXPECT_EQ(a.lower_bound, 0);
}

TEST(Csc, ToggleHasOneConflict) {
  const auto g = StateGraph::from_stg(toggle_stg());
  const auto a = sg::analyze_csc(g);
  ASSERT_EQ(a.conflicts.size(), 1u);
  EXPECT_EQ(a.num_usc_pairs, 1u);
  EXPECT_EQ(a.max_class_size, 2u);
  EXPECT_EQ(a.lower_bound, 1);
  // The two "00" states: one excites x+, the other y+.
  const auto [s1, s2] = a.conflicts[0];
  EXPECT_EQ(g.code(s1), g.code(s2));
  EXPECT_NE(excited_non_input(g, s1), excited_non_input(g, s2));
}

TEST(Csc, InputOnlyDifferenceIsNotAConflict) {
  // Two code-equal states differing only in which *input* is enabled do
  // not violate CSC.
  const auto stg = stg::Builder("inp")
                       .inputs({"a", "b"})
                       .outputs({"x"})
                       .path("a+", "x+", "a-", "b+", "x-", "b-")
                       .arc("b-", "a+")
                       .token("b-", "a+")
                       .build();
  const auto g = StateGraph::from_stg(stg);
  const auto a = sg::analyze_csc(g);
  // Classes may exist, but conflicts require differing non-input behaviour.
  for (const auto& [s1, s2] : a.conflicts) {
    EXPECT_NE(excited_non_input(g, s1).to_string(), excited_non_input(g, s2).to_string());
  }
}

TEST(Csc, ExistingSignalSeparationRemovesConflict) {
  const auto g = StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  // States: 0 -x+-> 1 -x-> 2 -y+-> 3 -y-> 0; conflict between 0 and 2.
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto a = sg::analyze_csc(g, &assigns);
  EXPECT_TRUE(a.satisfied()) << "stable 0/1 separation must clear the conflict";
}

TEST(Csc, ExcitedSignalDoesNotSeparate) {
  const auto g = StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  // Up at one of the conflicting states does NOT separate (phase overlap).
  assigns.add_signal("n", {V4::Zero, V4::Zero, V4::Up, V4::One});
  const auto a = sg::analyze_csc(g, &assigns);
  EXPECT_FALSE(a.satisfied());
}

TEST(Csc, StateSignalExcitationCreatesConflict) {
  // Code-equal states where the carried state signal is excited in one but
  // stable in the other: distinct behaviour.
  const auto g = StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  assigns.add_signal("p", {V4::Zero, V4::Zero, V4::Up, V4::One});
  const auto a = sg::analyze_csc(g, &assigns);
  // n separates the only code class pair, so no conflict can remain.
  EXPECT_TRUE(a.satisfied());
}

TEST(Csc, CompatiblePairsReported) {
  // Two pulses of the same signal in sequence: the idle states between
  // pulses share codes and behaviour.
  const auto stg = stg::Builder("pp")
                       .inputs({"a"})
                       .outputs({"x"})
                       .path("a+", "x+", "x-", "x+/1", "x-/1", "a-")
                       .arc("a-", "a+")
                       .token("a-", "a+")
                       .build();
  const auto g = StateGraph::from_stg(stg);
  const auto a = sg::analyze_csc(g);
  EXPECT_FALSE(a.conflicts.empty());
  EXPECT_FALSE(a.compatible_pairs.empty());
  // Conflicts and compatible pairs partition the unseparated USC pairs.
  EXPECT_EQ(a.conflicts.size() + a.compatible_pairs.size(), a.num_usc_pairs);
}

TEST(Csc, FocusSignalRestrictsConflicts) {
  const auto g = StateGraph::from_stg(toggle_stg());
  sg::CscOptions focus_x;
  focus_x.focus_signal = g.find_signal("x");
  const auto ax = sg::analyze_csc(g, nullptr, focus_x);
  // The 00 states differ in x-excitation, so the conflict remains.
  EXPECT_EQ(ax.conflicts.size(), 1u);

  // A pair differing only in y-excitation is invisible under focus x...
  sg::CscOptions focus_y;
  focus_y.focus_signal = g.find_signal("y");
  const auto ay = sg::analyze_csc(g, nullptr, focus_y);
  EXPECT_EQ(ay.conflicts.size(), 1u);  // ...but here both x+ and y+ differ.
}

TEST(Csc, LowerBoundCountsConflictGroupsOnly) {
  // Class with 4 states: 2 behaviour groups -> 1 signal suffices.
  const auto stg = stg::Builder("lb")
                       .outputs({"x", "y"})
                       .path("x+", "x-", "y+", "y-", "x+/1", "x-/1", "y+/1", "y-/1")
                       .arc("y-/1", "x+")
                       .token("y-/1", "x+")
                       .build();
  const auto g = StateGraph::from_stg(stg);
  const auto a = sg::analyze_csc(g);
  EXPECT_EQ(a.max_class_size, 4u);  // four all-zero states
  EXPECT_EQ(a.lower_bound, 1);      // but only two behaviours (x+ vs y+)
}

TEST(Csc, PaperBenchmarksAllViolateCscInitially) {
  for (const auto& b : mps::benchmarks::table1_benchmarks()) {
    const auto g = StateGraph::from_stg(b.make());
    const auto a = sg::analyze_csc(g);
    EXPECT_FALSE(a.satisfied()) << b.name << " should need state signals";
    EXPECT_GE(a.lower_bound, 1) << b.name;
  }
}

TEST(Csc, ConflictsAreOrderedAndUnique) {
  const auto g = StateGraph::from_stg(mps::benchmarks::find_benchmark("pa")->make());
  // Re-analysis of an already-built graph must be deterministic.
  const auto a1 = sg::analyze_csc(g);
  const auto a2 = sg::analyze_csc(g);
  EXPECT_EQ(a1.conflicts, a2.conflicts);
  for (std::size_t i = 0; i + 1 < a1.conflicts.size(); ++i) {
    EXPECT_LT(a1.conflicts[i], a1.conflicts[i + 1]);
  }
  for (const auto& [s1, s2] : a1.conflicts) EXPECT_LT(s1, s2);
}

TEST(Csc, MatchesPairwiseOracle) {
  // Every pair of states, no code index: a code-equal pair is a conflict
  // iff its excited non-input sets differ, else a compatible pair.
  for (const auto& b : mps::benchmarks::table1_benchmarks()) {
    const auto g = StateGraph::from_stg(b.make());
    std::vector<std::pair<sg::StateId, sg::StateId>> conflicts, compatible;
    std::vector<std::size_t> class_size(g.num_states(), 1);
    for (sg::StateId i = 0; i < g.num_states(); ++i) {
      for (sg::StateId j = i + 1; j < g.num_states(); ++j) {
        if (g.code(i) != g.code(j)) continue;
        ++class_size[i];
        (excited_non_input(g, i) == excited_non_input(g, j) ? compatible : conflicts)
            .emplace_back(i, j);
      }
    }
    const auto a = sg::analyze_csc(g);
    EXPECT_EQ(a.num_usc_pairs, conflicts.size() + compatible.size()) << b.name;
    EXPECT_EQ(a.max_class_size, *std::max_element(class_size.begin(), class_size.end()))
        << b.name;
    EXPECT_EQ(a.conflicts, conflicts) << b.name;
    EXPECT_EQ(a.compatible_pairs, compatible) << b.name;
  }
}

}  // namespace
