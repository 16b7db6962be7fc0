// Pins the CDCL engine's search on the two whole-graph baselines.  Direct
// (Vanbekbergen) and lavagno run under Engine::Cdcl with bench/table1's
// per-method limits, and every run's effort counters (decisions,
// propagations, conflicts, restarts, learned clauses) and quality columns
// (final states, signals, literals) must equal that spec's row of the
// committed BENCH_table1_cdcl.json.  Any change to branching, propagation
// order, learning, restarts or clause-DB reduction moves at least one
// counter.  nak-pa's direct and lavagno runs store enough learned clauses to
// trigger clause-DB reduction and arena compaction, so that path is pinned
// too.
//
// mr0, mr1 and mmu0 are left to perfbench's `baselines` workload: each of
// them takes longer than the 20 specs here together.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "baseline/lavagno.hpp"
#include "baseline/vanbekbergen.hpp"
#include "benchmarks/benchmarks.hpp"
#include "sg/state_graph.hpp"
#include "svc/json.hpp"

namespace {

using namespace mps;

struct Row {
  std::int64_t states, signals, literals;
  std::int64_t decisions, propagations, conflicts, restarts, learned;
};

/// "bench/method" -> row of the committed CDCL reference report.
std::map<std::string, Row> load_cdcl_reference() {
  std::ifstream in(std::string(MPS_SOURCE_DIR) + "/BENCH_table1_cdcl.json");
  std::stringstream text;
  text << in.rdbuf();
  const svc::Json report = svc::Json::parse(text.str());
  std::map<std::string, Row> rows;
  const svc::Json* items = report.find("rows");
  if (items == nullptr) return rows;
  for (const svc::Json& r : items->items()) {
    rows[r.get_string("bench", "") + "/" + r.get_string("method", "")] = {
        r.get_int("states", -1),       r.get_int("signals", -1),   r.get_int("literals", -1),
        r.get_int("decisions", -1),    r.get_int("propagations", -1),
        r.get_int("conflicts", -1),    r.get_int("restarts", -1),  r.get_int("learned", -1)};
  }
  return rows;
}

void expect_row(const std::string& key, const Row& want, const core::FlowResult& got) {
  EXPECT_EQ(static_cast<std::int64_t>(got.final_states), want.states) << key;
  EXPECT_EQ(static_cast<std::int64_t>(got.final_signals), want.signals) << key;
  EXPECT_EQ(static_cast<std::int64_t>(got.total_literals), want.literals) << key;
  EXPECT_EQ(got.solver_totals.decisions, want.decisions) << key;
  EXPECT_EQ(got.solver_totals.propagations, want.propagations) << key;
  EXPECT_EQ(got.solver_totals.conflicts, want.conflicts) << key;
  EXPECT_EQ(got.solver_totals.restarts, want.restarts) << key;
  EXPECT_EQ(got.solver_totals.learned, want.learned) << key;
}

TEST(CdclPin, BaselineEffortMatchesReference) {
  const auto reference = load_cdcl_reference();
  ASSERT_FALSE(reference.empty()) << "cannot read BENCH_table1_cdcl.json under " MPS_SOURCE_DIR;
  const std::set<std::string> left_to_perfbench = {"mr0", "mr1", "mmu0"};
  int pinned = 0;
  for (const benchmarks::Benchmark& b : benchmarks::table1_benchmarks()) {
    if (left_to_perfbench.count(b.name) != 0) continue;
    const auto g = sg::StateGraph::from_stg(b.make());

    baseline::DirectOptions vopts;  // bench/table1's configuration
    vopts.solve.engine = sat::Engine::Cdcl;
    vopts.solve.max_backtracks = 5000000;
    vopts.solve.time_limit_s = 60.0;
    const auto v = baseline::direct_synthesis(g, vopts);
    ASSERT_TRUE(v.success) << b.name << ": " << v.failure_reason;
    const std::string vkey = b.name + "/direct";
    ASSERT_EQ(reference.count(vkey), 1u) << vkey;
    expect_row(vkey, reference.at(vkey), v);

    baseline::LavagnoOptions lopts;
    lopts.solve.engine = sat::Engine::Cdcl;
    lopts.solve.max_backtracks = 2000000;
    lopts.solve.time_limit_s = 20.0;
    lopts.time_limit_s = 300.0;
    const auto l = baseline::lavagno_synthesis(g, lopts);
    ASSERT_TRUE(l.success) << b.name << ": " << l.failure_reason;
    const std::string lkey = b.name + "/lavagno";
    ASSERT_EQ(reference.count(lkey), 1u) << lkey;
    expect_row(lkey, reference.at(lkey), l);
    pinned += 2;
  }
  EXPECT_EQ(pinned, 40);
}

}  // namespace
