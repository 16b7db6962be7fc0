#include <gtest/gtest.h>

#include "encoding/csc_sat.hpp"
#include "sat/solver.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"

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

/// Decode a model into assignments for easier checking.
sg::Assignments decode(const encoding::Encoding& enc, const sat::Model& model,
                       std::size_t num_states) {
  sg::Assignments a(num_states);
  enc.decode(model, &a, "n");
  return a;
}

TEST(Encoding, VariableLayoutIsTwoPerStatePerSignal) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto analysis = sg::analyze_csc(g);
  const encoding::Encoding enc(g, 2, analysis.conflicts, analysis.compatible_pairs);
  EXPECT_EQ(enc.num_core_vars(), 2 * g.num_states() * 2);
  EXPECT_EQ(enc.var_a(1, 0), 4u);
  EXPECT_EQ(enc.var_b(1, 0), 5u);
  EXPECT_EQ(enc.var_a(0, 1), 2u);
  // Auxiliaries (if any) come after the core block.
  EXPECT_GE(enc.cnf().num_vars(), enc.num_core_vars());
}

TEST(Encoding, ToggleSolvableWithOneSignal) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto analysis = sg::analyze_csc(g);
  ASSERT_EQ(analysis.conflicts.size(), 1u);
  const encoding::Encoding enc(g, 1, analysis.conflicts, analysis.compatible_pairs);
  sat::Model model;
  ASSERT_EQ(sat::Solver().solve(enc.cnf(), &model), sat::Outcome::Sat);

  const auto assigns = decode(enc, model, g.num_states());
  // The decoded assignment separates the conflict and is edge-coherent.
  const auto [s1, s2] = analysis.conflicts[0];
  EXPECT_TRUE(sg::separates(assigns.value(0, s1), assigns.value(0, s2)));
  EXPECT_FALSE(assigns.check_coherence(g).has_value());
}

TEST(Encoding, SolutionsSurviveExpansionCscCheck) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto analysis = sg::analyze_csc(g);
  const encoding::Encoding enc(g, 1, analysis.conflicts, analysis.compatible_pairs);
  sat::Model model;
  ASSERT_EQ(sat::Solver().solve(enc.cnf(), &model), sat::Outcome::Sat);
  const auto assigns = decode(enc, model, g.num_states());
  const auto ex = sg::expand(g, assigns);
  EXPECT_TRUE(sg::analyze_csc(ex.graph).satisfied());
  EXPECT_TRUE(sg::semi_modularity_violations(ex.graph).empty());
}

TEST(Encoding, AdjacentStatesCannotBeSeparated) {
  // Separation needs stable complementary values, but coherence along the
  // connecting edge forbids (0,1): a formula demanding it is UNSAT.
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  std::vector<std::pair<sg::StateId, sg::StateId>> fake = {{0, 1}};  // adjacent
  const encoding::Encoding enc(g, 1, fake, {});
  EXPECT_EQ(sat::Solver().solve(enc.cnf()), sat::Outcome::Unsat);
}

TEST(Encoding, InputPropernessRestrictsSolutions) {
  // Handshake-gated pulse: with input properness the inserted transition
  // cannot hide inside the input edges, removing some solutions.
  const auto stg = stg::Builder("prop")
                       .inputs({"r"})
                       .outputs({"x"})
                       .path("r+", "x+", "x-", "x+/1", "x-/1", "r-")
                       .arc("r-", "r+")
                       .token("r-", "r+")
                       .build();
  const auto g = sg::StateGraph::from_stg(stg);
  const auto analysis = sg::analyze_csc(g);
  ASSERT_FALSE(analysis.conflicts.empty());

  encoding::EncodeOptions strict;
  strict.input_properness = true;
  encoding::EncodeOptions loose;
  loose.input_properness = false;
  const encoding::Encoding enc_strict(g, 1, analysis.conflicts, analysis.compatible_pairs,
                                      strict);
  const encoding::Encoding enc_loose(g, 1, analysis.conflicts, analysis.compatible_pairs,
                                     loose);
  EXPECT_GT(enc_strict.cnf().num_clauses(), enc_loose.cnf().num_clauses());
  // Strictness is monotone: any strict model also satisfies the loose CNF.
  sat::Model model;
  if (sat::Solver().solve(enc_strict.cnf(), &model) == sat::Outcome::Sat) {
    sat::Model trimmed(model.begin(), model.begin() + enc_loose.cnf().num_vars());
    EXPECT_TRUE(enc_loose.cnf().satisfied_by(model));
  }
}

TEST(Encoding, NaiveSeparationClauseCountGrowsGeometrically) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto analysis = sg::analyze_csc(g);
  // Force naive expansion at every m and measure the per-pair cost: 4^m.
  encoding::EncodeOptions opts;
  opts.naive_max_m = 10;
  std::size_t prev_total = 0;
  std::size_t prev_sep = 0;
  for (std::size_t m = 1; m <= 3; ++m) {
    const encoding::Encoding with(g, m, analysis.conflicts, {}, opts);
    const encoding::Encoding without(g, m, {}, {}, opts);
    const std::size_t sep = with.cnf().num_clauses() - without.cnf().num_clauses();
    if (m > 1) {
      EXPECT_EQ(sep, 4 * prev_sep) << "m=" << m;
      EXPECT_GT(with.cnf().num_clauses(), prev_total);
    } else {
      EXPECT_EQ(sep, 4u);  // 4 clauses for one pair at m=1
    }
    prev_sep = sep;
    prev_total = with.cnf().num_clauses();
  }
}

TEST(Encoding, TseitinKeepsClauseCountLinear) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto analysis = sg::analyze_csc(g);
  encoding::EncodeOptions opts;
  opts.naive_max_m = 0;  // always Tseitin
  const encoding::Encoding e1(g, 1, analysis.conflicts, {}, opts);
  const encoding::Encoding e4(g, 4, analysis.conflicts, {}, opts);
  const encoding::Encoding e1n(g, 1, {}, {}, opts);
  const encoding::Encoding e4n(g, 4, {}, {}, opts);
  const std::size_t sep1 = e1.cnf().num_clauses() - e1n.cnf().num_clauses();
  const std::size_t sep4 = e4.cnf().num_clauses() - e4n.cnf().num_clauses();
  EXPECT_EQ(sep1, 4u + 1u);       // 4 defining clauses + 1 disjunction
  EXPECT_EQ(sep4, 4u * 4u + 1u);  // linear in m
  // And Tseitin solutions are real solutions.
  sat::Model model;
  ASSERT_EQ(sat::Solver().solve(e4.cnf(), &model), sat::Outcome::Sat);
  const auto assigns = decode(e4, model, g.num_states());
  const auto [s1, s2] = analysis.conflicts[0];
  bool separated = false;
  for (std::size_t k = 0; k < assigns.num_signals(); ++k) {
    separated |= sg::separates(assigns.value(k, s1), assigns.value(k, s2));
  }
  EXPECT_TRUE(separated);
}

TEST(Encoding, CompatibilityPreventsFreshConflicts) {
  // Two x-pulses: idle states are compatible pairs.  Any solution must not
  // leave them with mismatched excitation unless fully separated.
  const auto stg = stg::Builder("pp")
                       .inputs({"a"})
                       .outputs({"x"})
                       .path("a+", "x+", "x-", "x+/1", "x-/1", "a-")
                       .arc("a-", "a+")
                       .token("a-", "a+")
                       .build();
  const auto g = sg::StateGraph::from_stg(stg);
  const auto analysis = sg::analyze_csc(g);
  ASSERT_FALSE(analysis.compatible_pairs.empty());
  for (std::size_t m = 1; m <= 3; ++m) {
    const encoding::Encoding enc(g, m, analysis.conflicts, analysis.compatible_pairs);
    sat::Model model;
    if (sat::Solver().solve(enc.cnf(), &model) != sat::Outcome::Sat) continue;
    const auto assigns = decode(enc, model, g.num_states());
    const auto ex = sg::expand(g, assigns);
    EXPECT_TRUE(sg::analyze_csc(ex.graph).satisfied()) << "m=" << m;
    return;
  }
  FAIL() << "no m in 1..3 solved the double-pulse instance";
}

TEST(Encoding, DiamondConstraintsPreserveSemiModularity) {
  // A concurrent fork: solutions must not let the inserted signal disable
  // a concurrent transition.
  const auto stg = stg::Builder("fork")
                       .inputs({"a"})
                       .outputs({"b", "c"})
                       .arc("a+", "b+")
                       .arc("a+", "c+")
                       .path("b+", "b-")
                       .path("c+", "c-")
                       .arc("b-", "a-")
                       .arc("c-", "a-")
                       .arc("a-", "a+")
                       .token("a-", "a+")
                       .build();
  const auto g = sg::StateGraph::from_stg(stg);
  ASSERT_TRUE(sg::semi_modularity_violations(g).empty());
  const auto analysis = sg::analyze_csc(g);
  ASSERT_FALSE(analysis.conflicts.empty());
  for (std::size_t m = 1; m <= 3; ++m) {
    const encoding::Encoding enc(g, m, analysis.conflicts, analysis.compatible_pairs);
    sat::Model model;
    if (sat::Solver().solve(enc.cnf(), &model) != sat::Outcome::Sat) continue;
    const auto assigns = decode(enc, model, g.num_states());
    const auto ex = sg::expand(g, assigns);
    EXPECT_TRUE(sg::semi_modularity_violations(ex.graph).empty()) << "m=" << m;
    return;
  }
  FAIL() << "no m in 1..3 solved the fork instance";
}

TEST(Encoding, EncodeCscConvenienceMatchesManual) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto analysis = sg::analyze_csc(g);
  const auto a = encoding::encode_csc(g, 1);
  const encoding::Encoding b(g, 1, analysis.conflicts, analysis.compatible_pairs);
  EXPECT_EQ(a.cnf().num_clauses(), b.cnf().num_clauses());
  EXPECT_EQ(a.cnf().num_vars(), b.cnf().num_vars());
}

}  // namespace
