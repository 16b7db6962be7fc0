#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "core/input_set.hpp"
#include "core/module_graph.hpp"
#include "core/partition_sat.hpp"
#include "core/synthesis.hpp"
#include "logic/extract.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
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

/// fork: a+ -> (b || c) -> a-; output b's logic depends only on a.
stg::Stg fork_stg() {
  return stg::Builder("fork")
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
}

TEST(TriggerSignals, SgLevelTriggers) {
  const auto g = sg::StateGraph::from_stg(fork_stg());
  const auto trig_b = core::sg_trigger_signals(g, g.find_signal("b"));
  ASSERT_EQ(trig_b.size(), 1u);
  EXPECT_EQ(g.signal(trig_b[0]).name, "a");
}

TEST(InputSet, KeepsOutputAndTriggers) {
  const auto g = sg::StateGraph::from_stg(fork_stg());
  const sg::SignalId b = g.find_signal("b");
  const auto isr = core::determine_input_set(g, b, sg::Assignments(g.num_states()));
  EXPECT_TRUE(isr.kept.test(b));
  EXPECT_TRUE(isr.kept.test(g.find_signal("a")));
}

TEST(InputSet, HidesIrrelevantSignals) {
  // In the fork, c is concurrent with b; hiding it must not increase the
  // b-focused conflicts, so the greedy pass removes it.
  const auto g = sg::StateGraph::from_stg(fork_stg());
  const sg::SignalId b = g.find_signal("b");
  const auto isr = core::determine_input_set(g, b, sg::Assignments(g.num_states()));
  EXPECT_FALSE(isr.kept.test(g.find_signal("c")));
}

TEST(InputSet, RetainsSeparatingStateSignals) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  // This signal separates the only conflict: dropping it would re-create
  // the conflict, so it must be retained.
  assigns.add_signal("n", {V4::Zero, V4::Up, V4::One, V4::Down});
  const auto isr = core::determine_input_set(g, g.find_signal("x"), assigns);
  ASSERT_EQ(isr.kept_state_signals.size(), 1u);
  EXPECT_EQ(isr.kept_state_signals[0], 0u);
}

TEST(InputSet, DropsUselessStateSignals) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  sg::Assignments assigns(g.num_states());
  assigns.add_signal("junk", {V4::Zero, V4::Zero, V4::Zero, V4::Zero});
  const auto isr = core::determine_input_set(g, g.find_signal("x"), assigns);
  EXPECT_TRUE(isr.kept_state_signals.empty());
}

TEST(ModuleGraph, ProjectsToInputSet) {
  const auto g = sg::StateGraph::from_stg(fork_stg());
  const sg::SignalId b = g.find_signal("b");
  const sg::Assignments none(g.num_states());
  const auto isr = core::determine_input_set(g, b, none);
  const auto module = core::build_module(g, b, isr, none);
  EXPECT_EQ(module.proj.kept.size(), isr.kept.count());
  EXPECT_LT(module.proj.graph.num_states(), g.num_states());
  // Focus is b remapped into module space.
  EXPECT_EQ(module.proj.graph.signal(module.focus).name, "b");
}

TEST(PartitionSat, NoConflictsMeansNoSignals) {
  const auto hs = stg::Builder("hs")
                      .inputs({"r"})
                      .outputs({"a"})
                      .path("r+", "a+", "r-", "a-")
                      .arc("a-", "r+")
                      .token("a-", "r+")
                      .build();
  const auto g = sg::StateGraph::from_stg(hs);
  const sg::Assignments none(g.num_states());
  const auto isr = core::determine_input_set(g, g.find_signal("a"), none);
  const auto module = core::build_module(g, g.find_signal("a"), isr, none);
  EXPECT_TRUE(module.conflicts.empty());
  const auto psr = core::partition_sat(module, "n");
  EXPECT_TRUE(psr.success);
  EXPECT_EQ(psr.module_assignments.num_signals(), 0u);
}

TEST(PartitionSat, SolvesToggleModule) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const sg::Assignments none(g.num_states());
  const sg::SignalId x = g.find_signal("x");
  const auto isr = core::determine_input_set(g, x, none);
  const auto module = core::build_module(g, x, isr, none);
  ASSERT_FALSE(module.conflicts.empty());
  const auto psr = core::partition_sat(module, "n");
  ASSERT_TRUE(psr.success);
  EXPECT_GE(psr.module_assignments.num_signals(), 1u);
  ASSERT_FALSE(psr.formulas.empty());
  EXPECT_EQ(psr.formulas.back().outcome, sat::Outcome::Sat);
  // Formula size bookkeeping: 2*N*m core variables.
  EXPECT_GE(psr.formulas.back().num_vars,
            2 * module.proj.graph.num_states() * psr.formulas.back().num_new_signals);
}

TEST(PartitionSat, CertificateRefutesUnseparableModule) {
  // sendr-done's output e: no signal count separates its module's
  // conflicts.  Figure 4 alone refutes m = 1..5 and then spends its whole
  // backtrack cap at every m up to the bound; the separability
  // certificate stops it after the first formula.
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("sendr-done")->make());
  const sg::Assignments none(g.num_states());
  const sg::SignalId e = g.find_signal("e");
  const auto module = core::build_module(g, e, core::determine_input_set(g, e, none), none);
  ASSERT_FALSE(module.conflicts.empty());
  const core::PartitionSatOptions opts;
  const auto psr = core::partition_sat(module, "n", opts);
  EXPECT_FALSE(psr.success);
  EXPECT_TRUE(psr.refuted);
  std::int64_t conflicts = 0;
  std::size_t certificates = 0;
  for (const auto& f : psr.formulas) {
    EXPECT_NE(f.outcome, sat::Outcome::Limit);
    conflicts += f.conflicts;
    certificates += f.certificate ? 1 : 0;
  }
  EXPECT_GE(certificates, 1u);
  EXPECT_LT(conflicts, 100);
  // The refutation is right: the full Figure-4 formula is Unsat at every
  // m the escalation would have tried.
  sat::SolveOptions cdcl;
  cdcl.engine = sat::Engine::Cdcl;
  for (std::size_t m = static_cast<std::size_t>(std::max(1, module.lower_bound));
       m <= core::kMaxNewSignals; ++m) {
    const encoding::Encoding enc(module.proj.graph, m, module.conflicts, module.compatible_pairs,
                                 opts.encode);
    EXPECT_EQ(sat::Solver().solve(enc.cnf(), nullptr, nullptr, cdcl), sat::Outcome::Unsat)
        << "m=" << m;
  }
}

TEST(PartitionSat, LimitEndsTheModule) {
  // A formula that hits its cap proves nothing about larger m: the module
  // fails at once, with no escalation and no certificate, and the round
  // goes on without it.
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("vbe4a")->make());
  const sg::Assignments none(g.num_states());
  const sg::SignalId f = g.find_signal("f");
  const auto module = core::build_module(g, f, core::determine_input_set(g, f, none), none);
  ASSERT_FALSE(module.conflicts.empty());
  core::PartitionSatOptions opts;
  opts.solve.max_backtracks = 1;
  const auto psr = core::partition_sat(module, "n", opts);
  EXPECT_FALSE(psr.success);
  EXPECT_FALSE(psr.refuted);
  ASSERT_EQ(psr.formulas.size(), 1u);
  EXPECT_FALSE(psr.formulas[0].certificate);
  EXPECT_EQ(psr.formulas[0].outcome, sat::Outcome::Limit);
  EXPECT_EQ(psr.formulas[0].num_new_signals,
            static_cast<std::size_t>(std::max(1, module.lower_bound)));
}

TEST(Synthesis, RefutedModuleIsNamedInTheFailureReason) {
  // Without the rescue round the refuted module's proof is the run's
  // failure reason.
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  opts.max_rounds = 1;
  const auto r = core::modular_synthesis(
      sg::StateGraph::from_stg(benchmarks::find_benchmark("sendr-done")->make()), opts);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure_reason, "no state-signal count separates the conflicts of output e");
}

TEST(Propagate, CopiesThroughCoverMap) {
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const sg::Assignments none(g.num_states());
  const sg::SignalId x = g.find_signal("x");
  const auto isr = core::determine_input_set(g, x, none);
  const auto module = core::build_module(g, x, isr, none);
  const auto psr = core::partition_sat(module, "n");
  ASSERT_TRUE(psr.success);
  sg::Assignments global(g.num_states());
  core::propagate(module, psr.module_assignments, &global, g.num_signals());
  ASSERT_EQ(global.num_signals(), psr.module_assignments.num_signals());
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_EQ(global.value(0, s),
              psr.module_assignments.value(0, module.proj.state_map[s]));
  }
  // Propagated assignments are coherent on the complete graph.
  EXPECT_FALSE(global.check_coherence(g).has_value());
}

TEST(Synthesis, ToggleEndToEnd) {
  const auto r = core::modular_synthesis(toggle_stg());
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.initial_states, 4u);
  EXPECT_EQ(r.initial_signals, 2u);
  EXPECT_EQ(r.final_signals, 3u);     // one inserted signal
  EXPECT_EQ(r.final_states, 6u);      // two split states
  EXPECT_EQ(r.total_literals, 7u);    // matches the paper's vbe-ex1 area
  EXPECT_TRUE(sg::analyze_csc(r.final_graph).satisfied());
  ASSERT_EQ(r.covers.size(), 3u);     // x, y and the state signal
}

TEST(Synthesis, AlreadyCleanSpecIsUntouched) {
  const auto hs = stg::Builder("hs")
                      .inputs({"r"})
                      .outputs({"a"})
                      .path("r+", "a+", "r-", "a-")
                      .arc("a-", "r+")
                      .token("a-", "r+")
                      .build();
  const auto r = core::modular_synthesis(hs);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.final_signals, r.initial_signals);
  EXPECT_EQ(r.final_states, r.initial_states);
  EXPECT_EQ(r.rounds, 0);
}

TEST(Synthesis, ReportsModules) {
  const auto r = core::modular_synthesis(toggle_stg());
  ASSERT_TRUE(r.success);
  ASSERT_FALSE(r.modules.empty());
  bool some_module_inserted = false;
  for (const auto& m : r.modules) {
    EXPECT_FALSE(m.output.empty());
    some_module_inserted |= m.new_signals > 0;
  }
  EXPECT_TRUE(some_module_inserted);
}

TEST(Synthesis, DeriveLogicCanBeDisabled) {
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(toggle_stg(), opts);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.covers.empty());
  EXPECT_EQ(r.total_literals, 0u);
}

TEST(Synthesis, CoversMatchFinalGraphFunctions) {
  const auto r = core::modular_synthesis(fork_stg());
  ASSERT_TRUE(r.success);
  for (const auto& [name, cover] : r.covers) {
    const auto sig = r.final_graph.find_signal(name);
    ASSERT_NE(sig, stg::kNoSignal) << name;
    const auto spec = logic::extract_next_state(r.final_graph, sig);
    EXPECT_TRUE(logic::cover_is_valid(spec, cover)) << name;
  }
}

TEST(Synthesis, DeterministicAcrossRuns) {
  const auto a = core::modular_synthesis(toggle_stg());
  const auto b = core::modular_synthesis(toggle_stg());
  EXPECT_EQ(a.final_states, b.final_states);
  EXPECT_EQ(a.final_signals, b.final_signals);
  EXPECT_EQ(a.total_literals, b.total_literals);
}

TEST(Synthesis, StgOverloadContractsDummies) {
  const auto stg = stg::Builder("dum")
                       .outputs({"x", "y"})
                       .dummies({"eps"})
                       .path("x+", "x-", "eps", "y+", "y-")
                       .arc("y-", "x+")
                       .token("y-", "x+")
                       .build();
  const auto r = core::modular_synthesis(stg);
  ASSERT_TRUE(r.success);
  // The ε transition is contracted away before synthesis.
  for (sg::StateId s = 0; s < r.final_graph.num_states(); ++s) {
    for (const auto& e : r.final_graph.out(s)) EXPECT_FALSE(e.is_silent());
  }
}

TEST(Synthesis, ModuleReportsRecordWallTime) {
  const auto r = core::modular_synthesis(toggle_stg());
  ASSERT_TRUE(r.success);
  ASSERT_FALSE(r.modules.empty());
  for (const auto& m : r.modules) EXPECT_GE(m.seconds, 0.0);
}

TEST(Synthesis, RoundTimeLimitStillTerminates) {
  // An absurdly small per-solve budget must not wedge or crash the flow:
  // a cut-off solve ends its module like a backtrack limit, and other
  // modules, later rounds or the rescue path finish the job — possibly
  // with a different (still CSC-valid) result, so only structural
  // properties are asserted here.
  core::SynthesisOptions opts;
  opts.sat.solve.time_limit_s = 1e-9;
  const auto r = core::modular_synthesis(toggle_stg(), opts);
  EXPECT_GE(r.rounds, 1);
  if (r.success) {
    EXPECT_TRUE(sg::analyze_csc(r.final_graph).satisfied());
  }
}

TEST(Synthesis, RoundBudgetExhaustionIsALimit) {
  // The same rule as the baselines: a spent round budget is a tripped
  // budget, and the failure names it.
  core::SynthesisOptions opts;
  opts.max_rounds = 0;
  const auto r = core::modular_synthesis(toggle_stg(), opts);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_EQ(r.failure_reason, "CSC conflicts remain after 0 rounds");
  EXPECT_EQ(r.rounds, 0);
}

TEST(Synthesis, DerivedAllLogicCountsEveryNonInput) {
  const auto r = core::modular_synthesis(fork_stg());
  ASSERT_TRUE(r.success);
  std::size_t non_inputs = 0;
  for (sg::SignalId s = 0; s < r.final_graph.num_signals(); ++s) {
    non_inputs += r.final_graph.is_input(s) ? 0 : 1;
  }
  EXPECT_EQ(r.covers.size(), non_inputs);
}

}  // namespace
