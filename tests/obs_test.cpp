#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "encoding/csc_sat.hpp"
#include "sat/solver.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mps;

/// Every test leaves the process-wide sink disabled and empty: other suites
/// in this binary (solver, synthesis) run instrumented code and must not
/// see stray recording costs or inherit this suite's events.
class Obs : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

stg::Stg toggle_stg() {
  return stg::Builder("toggle")
      .outputs({"x", "y"})
      .path("x+", "x-", "y+", "y-")
      .arc("y-", "x+")
      .token("y-", "x+")
      .build();
}

TEST_F(Obs, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  {
    obs::Span span("test.disabled");
    span.arg("k", 1);
    EXPECT_FALSE(span.active());
  }
  obs::counter_add("test.counter", 5);
  EXPECT_EQ(obs::num_events(), 0u);
  EXPECT_EQ(obs::counter_value("test.counter"), 0);
}

TEST_F(Obs, SpanAndCounterAppearWhenEnabled) {
  obs::set_enabled(true);
  obs::set_thread_name("obs-test");
  {
    obs::Span span("test.span", "detail-string");
    span.arg("answer", 42);
    EXPECT_TRUE(span.active());
  }
  obs::counter_add("test.counter", 3);
  obs::counter_add("test.counter", 4);
  EXPECT_EQ(obs::num_events(), 1u);
  EXPECT_EQ(obs::counter_value("test.counter"), 7);

  const std::string trace = obs::chrome_trace_json();
  EXPECT_NE(trace.find("\"test.span\""), std::string::npos);
  EXPECT_NE(trace.find("detail-string"), std::string::npos);
  EXPECT_NE(trace.find("\"answer\""), std::string::npos);
  EXPECT_NE(trace.find("\"obs-test\""), std::string::npos);  // lane metadata
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  const std::string stats = obs::stats_json();
  EXPECT_NE(stats.find("\"test.span\""), std::string::npos);
  EXPECT_NE(stats.find("\"test.counter\": 7"), std::string::npos);
}

TEST_F(Obs, ResetDropsEventsAndCounters) {
  obs::set_enabled(true);
  { obs::Span span("test.reset"); }
  obs::counter_add("test.reset", 1);
  ASSERT_GE(obs::num_events(), 1u);
  obs::reset();
  EXPECT_EQ(obs::num_events(), 0u);
  EXPECT_EQ(obs::counter_value("test.reset"), 0);
}

TEST_F(Obs, SolverEmitsSpanAndCounters) {
  obs::set_enabled(true);
  const auto g = sg::StateGraph::from_stg(toggle_stg());
  const auto enc = encoding::encode_csc(g, 1);
  sat::Model model;
  sat::SolveStats stats;
  ASSERT_EQ(sat::Solver().solve(enc.cnf(), &model, &stats), sat::Outcome::Sat);
  EXPECT_EQ(obs::counter_value("sat.solves"), 1);
  EXPECT_EQ(obs::counter_value("sat.decisions"), stats.decisions);
  EXPECT_EQ(obs::counter_value("sat.propagations"), stats.propagations);
  EXPECT_EQ(obs::counter_value("sat.conflicts"), stats.conflicts);
  const std::string trace = obs::chrome_trace_json();
  EXPECT_NE(trace.find("\"sat.solve\""), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\""), std::string::npos);
}

TEST_F(Obs, SynthesisEmitsModuleAndExpandSpans) {
  obs::set_enabled(true);
  // mmu0 inserts signals from three of its four modules, so the totals
  // below sum over several solves.
  const auto r = core::modular_synthesis(
      sg::StateGraph::from_stg(benchmarks::find_benchmark("mmu0")->make()));
  ASSERT_TRUE(r.success) << r.failure_reason;
  std::size_t inserting = 0;
  for (const auto& m : r.modules) inserting += m.new_signals > 0 ? 1 : 0;
  ASSERT_GE(inserting, 2u);
  const std::string trace = obs::chrome_trace_json();
  EXPECT_NE(trace.find("\"synth.modular\""), std::string::npos);
  EXPECT_NE(trace.find("\"synth.module\""), std::string::npos);
  EXPECT_NE(trace.find("\"sg.expand\""), std::string::npos);
  EXPECT_NE(trace.find("\"sg.infer_codes\""), std::string::npos);
  EXPECT_NE(trace.find("\"sg.analyze_csc\""), std::string::npos);
  // Every solve the flow runs feeds its result, so the totals surfaced on
  // the result are exactly the numbers the counters saw.
  EXPECT_EQ(obs::counter_value("sat.decisions"), r.solver_totals.decisions);
  EXPECT_EQ(obs::counter_value("sat.propagations"), r.solver_totals.propagations);
  EXPECT_EQ(obs::counter_value("sat.conflicts"), r.solver_totals.conflicts);
}

TEST_F(Obs, PoolTasksGetSpansAndWorkerLanes) {
  obs::set_enabled(true);
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(3);
    pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
  }  // joining the workers guarantees their startup lane registration ran
  EXPECT_EQ(count.load(), 16);
  const std::string trace = obs::chrome_trace_json();
  EXPECT_NE(trace.find("\"pool.task\""), std::string::npos);
  // Workers register lanes on startup even if the caller drained every
  // index before they were scheduled (single-core machines).
  EXPECT_NE(trace.find("\"worker-"), std::string::npos);
}

}  // namespace
