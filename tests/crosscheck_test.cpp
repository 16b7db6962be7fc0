// Cross-check suites: independent implementations must agree —
// SAT vs BDD on satisfiability, espresso-style vs exact minimization vs
// BDD equivalence (the BDD oracle for verify_synthesis's cover check),
// state-graph CSC analysis vs its BDD formulation, and
// the three synthesis methods on end-state invariants.
#include <gtest/gtest.h>

#include "baseline/lavagno.hpp"
#include "baseline/vanbekbergen.hpp"
#include "bdd/csc_bdd.hpp"
#include "bdd/symbolic.hpp"
#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "core/synthesis.hpp"
#include "logic/extract.hpp"
#include "sat/solver.hpp"
#include "sg/csc.hpp"

namespace {

using namespace mps;

class SatVsBddOnCscFormulas : public ::testing::TestWithParam<const char*> {};

TEST_P(SatVsBddOnCscFormulas, SameSatisfiability) {
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark(GetParam())->make());
  const auto analysis = sg::analyze_csc(g);
  for (std::size_t m = 1; m <= 2; ++m) {
    const encoding::Encoding enc(g, m, analysis.conflicts, analysis.compatible_pairs);
    sat::Model model;
    sat::SolveOptions opts;
    opts.max_backtracks = 500000;
    const auto dpll = sat::Solver().solve(enc.cnf(), &model, nullptr, opts);
    if (dpll == sat::Outcome::Limit) continue;
    try {
      const auto bdd_model = bdd::solve_cnf_bdd(enc.cnf(), 500000);
      EXPECT_EQ(bdd_model.has_value(), dpll == sat::Outcome::Sat)
          << GetParam() << " m=" << m;
    } catch (const util::LimitError&) {
      // BDD blow-up: nothing to compare.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, SatVsBddOnCscFormulas,
                         ::testing::Values("vbe-ex1", "vbe-ex2", "nousc-ser", "nouse",
                                           "sendr-done", "sbuf-read-ctl", "wrdata",
                                           "fifo", "pa", "atod"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(CscAnalysisVsBdd, AgreeOnSpecsAndSynthesisFixesThem) {
  for (const char* name : {"vbe-ex1", "nouse", "atod", "alloc-outbound", "mmu1"}) {
    const stg::Stg spec = benchmarks::find_benchmark(name)->make();
    const auto g = sg::StateGraph::from_stg(spec);
    // Spec-side: the symbolic engine (which never enumerates) against the
    // explicit token-game analysis.
    bdd::SymbolicStg sym(spec);
    EXPECT_EQ(sym.check_csc().holds, sg::analyze_csc(g).satisfied()) << name;
    EXPECT_DOUBLE_EQ(sym.num_states(), static_cast<double>(g.num_states())) << name;
    // Post-synthesis graphs have no STG to compile, so the explicit
    // analysis alone pins that synthesis actually established CSC.
    const auto r = core::modular_synthesis(g);
    ASSERT_TRUE(r.success) << name;
    EXPECT_TRUE(sg::analyze_csc(r.final_graph).satisfied()) << name;
  }
}

/// The BDD oracle on one synthesis result: every cover is exactly its
/// output's next-state function, ON ⊆ cover ⊆ ¬OFF.  verify_synthesis
/// checks the same property explicitly; this keeps an independent
/// implementation on it.
void expect_covers_match_bdd(const sg::StateGraph& g,
                             const std::vector<std::pair<std::string, logic::Cover>>& covers,
                             const std::string& context) {
  bdd::Manager mgr(g.num_signals());
  for (const auto& [name, cover] : covers) {
    const auto spec = logic::extract_next_state(g, g.find_signal(name));
    EXPECT_TRUE(bdd::cover_matches_spec(mgr, spec, cover)) << context << ": " << name;
  }
}

TEST(MinimizerVsBdd, EveryCoverEquivalentToItsSpec) {
  util::Rng rng(20260706);
  for (int trial = 0; trial < 10; ++trial) {
    benchmarks::RandomStgOptions opts;
    opts.num_signals = 5;
    const auto g = sg::StateGraph::from_stg(benchmarks::random_stg(rng, opts));
    const auto r = core::modular_synthesis(g);
    if (!r.success) continue;
    expect_covers_match_bdd(r.final_graph, r.covers, "trial " + std::to_string(trial));
  }
  for (const benchmarks::Benchmark& b : benchmarks::table1_benchmarks()) {
    const auto r = core::modular_synthesis(b.make());
    ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;
    expect_covers_match_bdd(r.final_graph, r.covers, b.name + " modular");
  }
  const auto direct = baseline::direct_synthesis(benchmarks::find_benchmark("atod")->make());
  ASSERT_TRUE(direct.success) << direct.failure_reason;
  expect_covers_match_bdd(direct.final_graph, direct.covers, "atod direct");
  const auto lavagno =
      baseline::lavagno_synthesis(benchmarks::find_benchmark("wrdata")->make());
  ASSERT_TRUE(lavagno.success) << lavagno.failure_reason;
  expect_covers_match_bdd(lavagno.final_graph, lavagno.covers, "wrdata lavagno");
}

TEST(ModularVsDirect, FinalGraphsImplementTheSameFunctionsWhenSignalsMatch) {
  // When both methods insert the same signal count, the original outputs'
  // functions restricted to the original signals must agree on reachable
  // original codes (the inserted signals differ, the visible behaviour
  // must not).
  for (const char* name : {"vbe-ex1", "vbe-ex2", "nouse"}) {
    const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
    const auto m = core::modular_synthesis(g);
    const auto v = baseline::direct_synthesis(g);
    ASSERT_TRUE(m.success && v.success) << name;
    if (m.final_signals != v.final_signals) continue;
    // Same state count and literal totals on these symmetric examples.
    EXPECT_EQ(m.total_literals, v.total_literals) << name;
  }
}

TEST(ExactVsHeuristicOnSynthesizedFunctions, ExactNeverWorse) {
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("atod")->make());
  const auto r = core::modular_synthesis(g);
  ASSERT_TRUE(r.success);
  for (sg::SignalId s = 0; s < r.final_graph.num_signals(); ++s) {
    if (r.final_graph.is_input(s)) continue;
    const auto spec = logic::extract_next_state(r.final_graph, s);
    if (spec.num_vars > 12) continue;
    const auto heur = logic::heuristic_minimize(spec);
    const auto exact = logic::exact_minimize(spec);
    if (exact.has_value()) {
      EXPECT_LE(exact->literal_count(), heur.literal_count())
          << r.final_graph.signal(s).name;
    }
  }
}

}  // namespace
