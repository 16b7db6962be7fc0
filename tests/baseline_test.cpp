#include <gtest/gtest.h>

#include "baseline/lavagno.hpp"
#include "baseline/vanbekbergen.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "sg/csc.hpp"
#include "stg/builder.hpp"
#include "util/common.hpp"
#include "verify/verify.hpp"

namespace {

using namespace mps;

stg::Stg toggle_stg() {
  return stg::Builder("toggle")
      .outputs({"x", "y"})
      .path("x+", "x-", "y+", "y-")
      .arc("y-", "x+")
      .token("y-", "x+")
      .build();
}

TEST(Direct, SolvesToggle) {
  const auto r = baseline::direct_synthesis(toggle_stg());
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_FALSE(r.hit_limit);
  EXPECT_EQ(r.final_signals, 3u);
  EXPECT_EQ(r.total_literals, 7u);
  EXPECT_TRUE(sg::analyze_csc(r.final_graph).satisfied());
}

TEST(Direct, CleanSpecNeedsNothing) {
  const auto hs = stg::Builder("hs")
                      .inputs({"r"})
                      .outputs({"a"})
                      .path("r+", "a+", "r-", "a-")
                      .arc("a-", "r+")
                      .token("a-", "r+")
                      .build();
  const auto r = baseline::direct_synthesis(hs);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.final_signals, r.initial_signals);
  EXPECT_EQ(r.rounds, 0);
}

TEST(Direct, BacktrackLimitProducesLimitRow) {
  // The paper's "SAT Backtrack Limit" behaviour: with a tiny budget the
  // direct method gives up on a large instance and reports it.
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark("mmu1")->make());
  baseline::DirectOptions opts;
  opts.solve.max_backtracks = 10;
  const auto r = baseline::direct_synthesis(g, opts);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_FALSE(r.formulas.empty());
  EXPECT_EQ(r.formulas.back().outcome, sat::Outcome::Limit);
}

TEST(Direct, RoundBudgetExhaustionIsNamed) {
  // A spent round budget is a tripped budget, and the failure names it.
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("pa")->make());
  baseline::DirectOptions opts;
  opts.max_rounds = 0;
  const auto r = baseline::direct_synthesis(g, opts);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_EQ(r.failure_reason, "CSC conflicts remain after 0 rounds");
}

TEST(Direct, FormulaSizesMatchTheModel) {
  // vars = 2*N*m for the core encoding (§2.1).
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  baseline::DirectOptions opts;
  const auto r = baseline::direct_synthesis(g, opts);
  ASSERT_TRUE(r.success);
  ASSERT_FALSE(r.formulas.empty());
  const auto& f = r.formulas.front();
  EXPECT_GE(f.num_vars, 2 * g.num_states() * f.num_new_signals);
}

TEST(Direct, ResultVerifiesEndToEnd) {
  const auto r =
      baseline::direct_synthesis(benchmarks::find_benchmark("atod")->make());
  ASSERT_TRUE(r.success);
  const auto report = verify::verify_synthesis(r.final_graph, r.covers);
  EXPECT_TRUE(report.codes_consistent);
  EXPECT_TRUE(report.csc_satisfied);
  EXPECT_TRUE(report.covers_valid);
}

TEST(Lavagno, SolvesToggle) {
  const auto r = baseline::lavagno_synthesis(toggle_stg());
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.insertions, 1);
  EXPECT_EQ(r.final_signals, 3u);
  EXPECT_TRUE(sg::analyze_csc(r.final_graph).satisfied());
}

TEST(Lavagno, InsertsIncrementally) {
  // Needs more than one signal: the insertion count reflects the steps.
  const auto r =
      baseline::lavagno_synthesis(benchmarks::find_benchmark("pa")->make());
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.insertions, 2);
  EXPECT_EQ(r.final_signals, r.initial_signals + static_cast<std::size_t>(r.insertions));
}

TEST(Lavagno, TimeLimitReported) {
  baseline::LavagnoOptions opts;
  opts.time_limit_s = 1e-9;  // expires immediately
  const auto r =
      baseline::lavagno_synthesis(benchmarks::find_benchmark("pa")->make(), opts);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.hit_limit);
}

TEST(Lavagno, OverallBudgetStopsARunningSolve) {
  // The overall budget is the solves' deadline too: a whole-graph formula
  // that would search for minutes stops when the budget runs out.
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("nak-pa")->make());
  baseline::LavagnoOptions opts;
  opts.time_limit_s = 0.5;
  opts.derive_logic = false;
  const util::Timer timer;
  const auto r = baseline::lavagno_synthesis(g, opts);
  EXPECT_LT(timer.seconds(), 5.0);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.hit_limit) << r.failure_reason;
}

TEST(Lavagno, ResultVerifiesEndToEnd) {
  const auto r =
      baseline::lavagno_synthesis(benchmarks::find_benchmark("wrdata")->make());
  ASSERT_TRUE(r.success);
  const auto report = verify::verify_synthesis(r.final_graph, r.covers);
  EXPECT_TRUE(report.codes_consistent);
  EXPECT_TRUE(report.csc_satisfied);
  EXPECT_TRUE(report.covers_valid);
}

TEST(Comparison, AllThreeMethodsAgreeOnCscSatisfaction) {
  for (const char* name : {"vbe-ex1", "nouse", "nousc-ser", "sbuf-read-ctl"}) {
    const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
    const auto m = core::modular_synthesis(g);
    const auto v = baseline::direct_synthesis(g);
    const auto l = baseline::lavagno_synthesis(g);
    ASSERT_TRUE(m.success) << name;
    ASSERT_TRUE(v.success) << name;
    ASSERT_TRUE(l.success) << name;
    EXPECT_TRUE(sg::analyze_csc(m.final_graph).satisfied()) << name;
    EXPECT_TRUE(sg::analyze_csc(v.final_graph).satisfied()) << name;
    EXPECT_TRUE(sg::analyze_csc(l.final_graph).satisfied()) << name;
  }
}

TEST(Comparison, ModularBeatsDirectOnLargeInstances) {
  // The headline claim, in miniature: on a big graph the modular method
  // finishes while the direct method's limited search does not.
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("mr1")->make());
  core::SynthesisOptions mopts;
  mopts.derive_logic = false;
  const auto m = core::modular_synthesis(g, mopts);
  EXPECT_TRUE(m.success);

  baseline::DirectOptions vopts;
  vopts.derive_logic = false;
  vopts.solve.max_backtracks = 50000;  // small budget: the direct formula defeats it
  const auto v = baseline::direct_synthesis(g, vopts);
  EXPECT_FALSE(v.success);
  EXPECT_TRUE(v.hit_limit);
}

}  // namespace
