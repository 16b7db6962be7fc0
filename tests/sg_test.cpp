#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "benchmarks/generators.hpp"
#include "sg/assignments.hpp"
#include "sg/expand.hpp"
#include "sg/projection.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"
#include "stg/parser.hpp"

namespace {

using namespace mps;
using sg::StateGraph;
using sg::V4;

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

TEST(StateGraph, HandshakeHasFourDistinctCodes) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  EXPECT_EQ(g.num_states(), 4u);
  EXPECT_EQ(g.num_signals(), 2u);
  std::set<std::string> codes;
  for (sg::StateId s = 0; s < g.num_states(); ++s) codes.insert(g.code(s).to_string());
  EXPECT_EQ(codes.size(), 4u);
  g.check_consistency();
}

TEST(StateGraph, InitialStateHasInferredZeroValues) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  // r+ is enabled at the initial state, so r must be 0 there; a falls last,
  // so a is 0 too.
  EXPECT_FALSE(g.value(g.initial(), g.find_signal("r")));
  EXPECT_FALSE(g.value(g.initial(), g.find_signal("a")));
}

TEST(StateGraph, ToggleCycleRepeatsCodes) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  EXPECT_EQ(g.num_states(), 4u);
  std::set<std::string> codes;
  for (sg::StateId s = 0; s < g.num_states(); ++s) codes.insert(g.code(s).to_string());
  EXPECT_EQ(codes.size(), 3u);  // "00" repeats
}

TEST(StateGraph, ExcitationSets) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  const sg::SignalId r = g.find_signal("r");
  const sg::SignalId a = g.find_signal("a");
  const auto excited0 = g.excited(g.initial());
  EXPECT_TRUE(excited0.test(r));
  EXPECT_FALSE(excited0.test(a));
  // Masking the inputs, as CSC analysis does, excludes r.
  util::BitVec non_input = excited0;
  non_input.and_not(g.input_mask());
  EXPECT_FALSE(non_input.test(r));
  EXPECT_TRUE(g.excited_dir(g.initial(), r, true));
  EXPECT_FALSE(g.excited_dir(g.initial(), r, false));
}

TEST(StateGraph, InconsistentStgRejected) {
  // x rises twice in a row: no consistent assignment.
  const char* bad = R"(
.model bad
.outputs x
.graph
x+ x+/1
x+/1 x-
x- x+
.marking { <x-,x+> }
.end
)";
  EXPECT_THROW(StateGraph::from_stg(stg::parse_g(bad)), mps::util::SemanticsError);
}

TEST(StateGraph, StateLimitEnforced) {
  const auto big = mps::benchmarks::gen_parallelizer("big", 4);
  sg::BuildOptions opts;
  opts.max_states = 10;
  EXPECT_THROW(StateGraph::from_stg(big, opts), mps::util::LimitError);
}

TEST(StateGraph, SealListsEachRowInAddEdgeOrder) {
  // Edges staged out of source order land in their source's row, each row
  // in add_edge order; out() reads rows only once the graph is sealed.
  StateGraph g({{"x", false}, {"y", false}});
  for (int i = 0; i < 4; ++i) g.add_state(util::BitVec(2));
  g.add_edge(2, {1, true, 0});
  g.add_edge(0, {0, true, 3});
  g.add_edge(2, {0, false, 1});
  g.add_edge(0, {1, false, 2});
  EXPECT_EQ(g.num_edges(), 4u);
  g.seal();
  const auto row = [&](sg::StateId s) {
    return std::vector<sg::Edge>(g.out(s).begin(), g.out(s).end());
  };
  EXPECT_EQ(row(0), (std::vector<sg::Edge>{{0, true, 3}, {1, false, 2}}));
  EXPECT_TRUE(row(1).empty());
  EXPECT_EQ(row(2), (std::vector<sg::Edge>{{1, true, 0}, {0, false, 1}}));
  EXPECT_TRUE(row(3).empty());
}

TEST(StateGraph, ConcurrentPairsCount) {
  // par of two pulses: the fork state enables both.
  const auto stg = mps::benchmarks::gen_parallelizer("p2", 2);
  const StateGraph g = StateGraph::from_stg(stg);
  EXPECT_GT(g.num_concurrent_pairs(), 0u);
}

// --- projection --------------------------------------------------------

TEST(Projection, HidingMergesStates) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("y"));
  const auto proj = sg::hide_signals(g, hide);
  // y's two transitions merge 3 states into 1: x+ x- remain.
  EXPECT_EQ(proj.graph.num_states(), 2u);
  EXPECT_EQ(proj.kept.size(), 1u);
  EXPECT_EQ(proj.graph.signal(0).name, "x");
  // Cover map is total and in range.
  for (const sg::StateId c : proj.state_map) EXPECT_LT(c, proj.graph.num_states());
}

TEST(Projection, KeptCodesAgreeWithOriginals) {
  const auto stg = mps::benchmarks::gen_sequencer("seq", 2);
  const StateGraph g = StateGraph::from_stg(stg);
  util::BitVec hide(g.num_signals());
  hide.set(1);
  hide.set(3);
  const auto proj = sg::hide_signals(g, hide);
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (std::size_t i = 0; i < proj.kept.size(); ++i) {
      EXPECT_EQ(g.code(s).test(proj.kept[i]),
                proj.graph.code(proj.state_map[s]).test(static_cast<sg::SignalId>(i)));
    }
  }
}

TEST(Projection, HideNothingIsIsomorphic) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  const util::BitVec hide(g.num_signals());
  const auto proj = sg::hide_signals(g, hide);
  EXPECT_EQ(proj.graph.num_states(), g.num_states());
  EXPECT_EQ(proj.graph.num_edges(), g.num_edges());
}

TEST(Projection, AssignmentMergeFollowsFigure3) {
  // Graph: chain of 4 states via x+ x- y+ (y hidden); state signal values
  // 0, Up, 1, 1 should merge by (0,Up)->Up rules where states merge.
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  // States: 0 -x+-> 1 -x-> 2 -y+-> 3 -y-> 0.
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::One});
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("x"));  // merges 0,1,2 into one class
  const auto proj = sg::hide_signals(g, hide, &assigns);
  EXPECT_TRUE(proj.assignments_consistent);
  ASSERT_EQ(proj.assignments.num_signals(), 1u);
  // Merged class {0,1,2} has Up (0,Up,1 pattern); class {3} keeps One.
  const sg::StateId merged = proj.state_map[0];
  EXPECT_EQ(proj.assignments.value(0, merged), V4::Up);
  EXPECT_EQ(proj.assignments.value(0, proj.state_map[3]), V4::One);
}

TEST(Projection, InconsistentMergeDetected) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  // 0 and 1 in one ε-class with no excitation boundary: inconsistent.
  assigns.add_signal("n", {V4::Zero, V4::One, V4::One, V4::One});
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("x"));
  const auto proj = sg::hide_signals(g, hide, &assigns);
  EXPECT_FALSE(proj.assignments_consistent);
}

TEST(Projection, UpAndDownInOneClassRejected) {
  const StateGraph g = StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Up, V4::Down, V4::Zero, V4::Zero});
  util::BitVec hide(g.num_signals());
  hide.set(g.find_signal("x"));
  const auto proj = sg::hide_signals(g, hide, &assigns);
  EXPECT_FALSE(proj.assignments_consistent);
}

/// Per quotient state, its out-edges as a sorted list: hiding composes up
/// to the order in which a class's edges are listed.
std::vector<std::vector<sg::Edge>> sorted_out(const StateGraph& g) {
  std::vector<std::vector<sg::Edge>> out;
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    out.emplace_back(g.out(s).begin(), g.out(s).end());
    std::sort(out.back().begin(), out.back().end(), [](const sg::Edge& a, const sg::Edge& b) {
      return std::tie(a.sig, a.rise, a.to) < std::tie(b.sig, b.rise, b.to);
    });
  }
  return out;
}

TEST(Projection, HidingComposes) {
  // quotient(quotient(g, H), {s}) == quotient(g, H ∪ {s}), classes numbered
  // in the same order.
  for (const stg::Stg& spec : {toggle_stg(), mps::benchmarks::gen_sequencer("seq", 3),
                               mps::benchmarks::gen_parallelizer("par", 3)}) {
    const StateGraph g = StateGraph::from_stg(spec);
    for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
      util::BitVec hide(g.num_signals());
      for (sg::SignalId h = 0; h < g.num_signals(); ++h) {
        if (h != s && h % 2 != s % 2) hide.set(h);
      }
      const auto q = sg::hide_signals(g, hide);
      hide.set(s);
      const auto direct = sg::hide_signals(g, hide);
      util::BitVec one(q.kept.size());
      const auto pos = std::find(q.kept.begin(), q.kept.end(), s) - q.kept.begin();
      one.set(static_cast<std::size_t>(pos));
      const auto composed = sg::hide_signals(q.graph, one);
      const std::string where = spec.name() + " hiding " + g.signal(s).name;
      ASSERT_EQ(composed.graph.num_states(), direct.graph.num_states()) << where;
      for (sg::StateId x = 0; x < g.num_states(); ++x) {
        ASSERT_EQ(composed.state_map[q.state_map[x]], direct.state_map[x]) << where;
      }
      for (sg::StateId c = 0; c < direct.graph.num_states(); ++c) {
        EXPECT_EQ(composed.graph.code(c), direct.graph.code(c)) << where;
      }
      EXPECT_EQ(sorted_out(composed.graph), sorted_out(direct.graph)) << where;
      EXPECT_EQ(composed.graph.initial(), direct.graph.initial()) << where;
    }
  }

  // The merged values compose; Figure 3's per-edge rule does not.
  // u -h+-> w and u -s+-> v with n = 0 at u, Up at w, 0 at v.  Hiding h
  // merges {u, w} to Up; hiding s as well puts all three in one class,
  // merged Up and consistent.  Re-running the per-edge rule on the merged
  // values would see (Up, 0) across the s edge and wrongly reject it.
  StateGraph g({{"h", false}, {"s", false}});
  const auto code = [](bool h, bool s) {
    util::BitVec c(2);
    c.set(0, h);
    c.set(1, s);
    return c;
  };
  const sg::StateId u = g.add_state(code(false, false));
  const sg::StateId w = g.add_state(code(true, false));
  const sg::StateId v = g.add_state(code(false, true));
  g.add_edge(u, {0, true, w});
  g.add_edge(u, {1, true, v});
  g.seal();
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::Zero});

  util::BitVec hide_h(2);
  hide_h.set(0);
  const auto q = sg::hide_signals(g, hide_h, &assigns);
  ASSERT_TRUE(q.assignments_consistent);
  EXPECT_EQ(q.assignments.value(0, q.state_map[u]), V4::Up);
  EXPECT_EQ(q.assignments.value(0, q.state_map[v]), V4::Zero);

  util::BitVec hide_both(2, true);
  const auto direct = sg::hide_signals(g, hide_both, &assigns);
  ASSERT_TRUE(direct.assignments_consistent);
  ASSERT_EQ(direct.graph.num_states(), 1u);
  EXPECT_EQ(direct.assignments.value(0, 0), V4::Up);

  util::BitVec hide_s(1, true);  // s is q's only signal
  EXPECT_FALSE(sg::hide_signals(q.graph, hide_s, &q.assignments).assignments_consistent);

  // The composed form: the per-edge rule from g, the class rules from q.
  EXPECT_TRUE(sg::mergeable_labels(g, assigns)[1]);
  const auto composed = sg::hide_signals(q.graph, hide_s);
  sg::Assignments merged(composed.graph.num_states());
  EXPECT_TRUE(sg::merge_into_classes(q.assignments, composed.state_map, &merged));
  EXPECT_EQ(merged.value(0, 0), V4::Up);
}

// --- assignments / V4 --------------------------------------------------

TEST(V4, MergeRules) {
  using sg::merge_pair_allowed;
  // Equal pairs.
  for (const V4 v : {V4::Zero, V4::One, V4::Up, V4::Down}) {
    EXPECT_TRUE(merge_pair_allowed(v, v));
  }
  // Excitation boundaries (directed).
  EXPECT_TRUE(merge_pair_allowed(V4::Zero, V4::Up));
  EXPECT_TRUE(merge_pair_allowed(V4::Up, V4::One));
  EXPECT_TRUE(merge_pair_allowed(V4::One, V4::Down));
  EXPECT_TRUE(merge_pair_allowed(V4::Down, V4::Zero));
  // The reverse directions are inconsistent.
  EXPECT_FALSE(merge_pair_allowed(V4::Up, V4::Zero));
  EXPECT_FALSE(merge_pair_allowed(V4::One, V4::Up));
  EXPECT_FALSE(merge_pair_allowed(V4::Down, V4::One));
  EXPECT_FALSE(merge_pair_allowed(V4::Zero, V4::Down));
  // Plain contradictions.
  EXPECT_FALSE(merge_pair_allowed(V4::Zero, V4::One));
  EXPECT_FALSE(merge_pair_allowed(V4::One, V4::Zero));
  EXPECT_FALSE(merge_pair_allowed(V4::Up, V4::Down));
  EXPECT_FALSE(merge_pair_allowed(V4::Down, V4::Up));
}

TEST(V4, SeparationIsStableComplementOnly) {
  EXPECT_TRUE(sg::separates(V4::Zero, V4::One));
  EXPECT_TRUE(sg::separates(V4::One, V4::Zero));
  EXPECT_FALSE(sg::separates(V4::Up, V4::One));
  EXPECT_FALSE(sg::separates(V4::Zero, V4::Down));
  EXPECT_FALSE(sg::separates(V4::Up, V4::Down));
}

TEST(Assignments, CoherenceCheck) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments good(g.num_states());
  // 0 -r+-> 1 -a+-> 2 -r-> 3 -a-> 0: rise across 1, fall across 3.
  good.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  EXPECT_FALSE(good.check_coherence(g).has_value());

  sg::Assignments bad(g.num_states());
  bad.add_signal("n", {V4::Zero, V4::One, V4::One, V4::Zero});  // 0->1 jump
  EXPECT_TRUE(bad.check_coherence(g).has_value());
}

TEST(Assignments, Subset) {
  sg::Assignments a(3);
  a.add_signal("p", {V4::Zero, V4::One, V4::Zero});
  a.add_signal("q", {V4::Up, V4::Up, V4::Up});
  const auto sub = a.subset({1});
  EXPECT_EQ(sub.num_signals(), 1u);
  EXPECT_EQ(sub.name(0), "q");
  EXPECT_EQ(sub.value(0, 2), V4::Up);
}

// --- expansion ----------------------------------------------------------

TEST(Expand, EmptyAssignmentsIsCopy) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  const auto ex = sg::expand(g, sg::Assignments(g.num_states()));
  EXPECT_EQ(ex.graph.num_states(), g.num_states());
  EXPECT_EQ(ex.graph.num_edges(), g.num_edges());
}

TEST(Expand, SplitsExcitedStates) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  // Two excited states split: 4 + 2 = 6 states; signal column added.
  EXPECT_EQ(ex.graph.num_states(), 6u);
  EXPECT_EQ(ex.graph.num_signals(), 3u);
  EXPECT_FALSE(ex.graph.is_input(2));
  ex.graph.check_consistency();
  // The inserted signal has both a rising and a falling edge.
  bool rise = false;
  bool fall = false;
  for (sg::StateId s = 0; s < ex.graph.num_states(); ++s) {
    for (const sg::Edge& e : ex.graph.out(s)) {
      if (e.sig == 2) (e.rise ? rise : fall) = true;
    }
  }
  EXPECT_TRUE(rise);
  EXPECT_TRUE(fall);
}

TEST(Expand, IncoherentAssignmentThrows) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::One, V4::Zero, V4::One});
  EXPECT_THROW(sg::expand(g, assigns), mps::util::SemanticsError);
}

TEST(Expand, OriginMapsBackToSource) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto ex = sg::expand(g, assigns);
  ASSERT_EQ(ex.origin.size(), ex.graph.num_states());
  for (const sg::StateId o : ex.origin) EXPECT_LT(o, g.num_states());
}

TEST(SemiModularity, HandshakeIsSemiModular) {
  const StateGraph g = StateGraph::from_stg(handshake_stg());
  EXPECT_TRUE(sg::semi_modularity_violations(g).empty());
}

TEST(SemiModularity, OutputChoiceDetected) {
  // A place choosing between two output transitions: firing one disables
  // the other.
  const char* text = R"(
.model oc
.outputs x y z
.graph
p0 x+ y+
x+ z+
y+ z+/1
z+ z-
z+/1 z-/1
z- x-
z-/1 y-
x- p0
y- p0
.marking { p0 }
.end
)";
  const StateGraph g = StateGraph::from_stg(stg::parse_g(text));
  EXPECT_FALSE(sg::semi_modularity_violations(g).empty());
}

}  // namespace
