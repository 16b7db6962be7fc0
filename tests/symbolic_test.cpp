// The symbolic engine against the explicit one: reachable-state counts,
// CSC verdicts and reachable codes must agree on every Table-1 benchmark
// and on randomly generated STGs; the pipeline family exercises the scale
// (10⁵–10⁶ states) the explicit engine cannot reach comfortably.  Runs as
// its own target under the `bdd` ctest label.
#include <gtest/gtest.h>

#include <cmath>

#include "bdd/symbolic.hpp"
#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "sg/csc.hpp"
#include "sg/state_graph.hpp"
#include "stg/parser.hpp"
#include "util/common.hpp"

namespace {

using namespace mps;
using bdd::SymbolicStg;
using util::BitVec;

/// Number of distinct reachable codes per the symbolic engine: code_chi
/// depends only on the signal variables, so its sat-count over all
/// 2·num_bits variables is (#codes) · 2^(num_vars − num_signals).
double symbolic_code_count(SymbolicStg& sym, std::size_t num_signals) {
  const double total = sym.manager().sat_count(sym.code_chi());
  const double free_vars =
      static_cast<double>(sym.manager().num_vars()) - static_cast<double>(num_signals);
  return total / std::pow(2.0, free_vars);
}

TEST(SymbolicVsExplicit, AgreesOnEveryTable1Benchmark) {
  for (const auto& b : benchmarks::table1_benchmarks()) {
    const stg::Stg spec = b.make();
    const sg::StateGraph g = sg::StateGraph::from_stg(spec);
    const sg::CscResult explicit_csc = sg::analyze_csc(g);

    SymbolicStg sym(spec);
    EXPECT_DOUBLE_EQ(sym.num_states(), static_cast<double>(g.num_states())) << b.name;
    EXPECT_EQ(sym.check_csc().holds, explicit_csc.satisfied()) << b.name;
    EXPECT_EQ(sym.initial_code(), g.code(g.initial())) << b.name;

    for (sg::StateId s = 0; s < g.num_states(); ++s) {
      EXPECT_TRUE(sym.code_reachable(g.code(s))) << b.name << " state " << s;
    }
    EXPECT_DOUBLE_EQ(symbolic_code_count(sym, g.num_signals()),
                     static_cast<double>(sg::code_classes(g).num_classes()))
        << b.name;
  }
}

TEST(SymbolicVsExplicit, AgreesOnRandomStgs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    const stg::Stg spec = benchmarks::random_stg(rng);
    const sg::StateGraph g = sg::StateGraph::from_stg(spec);
    SymbolicStg sym(spec);
    EXPECT_DOUBLE_EQ(sym.num_states(), static_cast<double>(g.num_states()))
        << "seed " << seed;
    EXPECT_EQ(sym.check_csc().holds, sg::analyze_csc(g).satisfied()) << "seed " << seed;
  }
}

TEST(SymbolicVsExplicit, ToggleRingViolatesCscInBothEngines) {
  const stg::Stg spec = benchmarks::gen_toggle_ring("ring", 3);
  const sg::StateGraph g = sg::StateGraph::from_stg(spec);
  EXPECT_FALSE(sg::analyze_csc(g).satisfied());
  SymbolicStg sym(spec);
  const bdd::CscVerdict v = sym.check_csc();
  EXPECT_FALSE(v.holds);
  EXPECT_FALSE(v.conflicts.empty());
}

TEST(SymbolicScaling, PipelineCrossCheckAt1e5States) {
  // pipe10: 118,100 reachable states — explicit still (slowly) manages, so
  // the two engines can be compared head to head at 10⁵.
  const stg::Stg spec = benchmarks::gen_pipeline("pipe", 10);
  sg::BuildOptions opts;
  opts.max_states = 1u << 21;
  const sg::StateGraph g = sg::StateGraph::from_stg(spec, opts);
  ASSERT_EQ(g.num_states(), 118100u);
  SymbolicStg sym(spec);
  EXPECT_DOUBLE_EQ(sym.num_states(), 118100.0);
  EXPECT_EQ(sym.check_csc().holds, sg::analyze_csc(g).satisfied());
}

TEST(SymbolicScaling, PipelineBeyondExplicitLimit) {
  // pipe14: 9,565,940 states — beyond the explicit builder's 2^21 default
  // limit (and its 2^22 ceiling); the symbolic engine finishes in well
  // under a second.  Chaining covers the 4n+4 = 60 BFS layers in two
  // sweeps, plus the one that finds nothing new.
  const stg::Stg spec = benchmarks::gen_pipeline("pipe", 14);
  SymbolicStg sym(spec);
  EXPECT_DOUBLE_EQ(sym.num_states(), 9565940.0);
  EXPECT_EQ(sym.num_iterations(), 3u);
  EXPECT_FALSE(sym.check_csc().holds);
}

TEST(SymbolicScaling, GcPreservesTheFixedPoint) {
  // A threshold small enough to force collections mid-reachability: the
  // result must not change, and the collector must actually have run.
  bdd::SymbolicOptions opts;
  opts.gc_node_threshold = 2000;
  const stg::Stg spec = benchmarks::gen_pipeline("pipe", 8);
  SymbolicStg sym(spec, opts);
  EXPECT_DOUBLE_EQ(sym.num_states(), 13124.0);
  EXPECT_GT(sym.manager().stats().gc_runs, 0u);
  EXPECT_FALSE(sym.check_csc().holds);
}

TEST(SymbolicBudget, NodeLimitSurfacesAsLimitError) {
  bdd::SymbolicOptions opts;
  opts.max_nodes = 500;
  SymbolicStg sym(benchmarks::gen_pipeline("pipe", 8), opts);
  EXPECT_THROW(sym.reachable(), util::LimitError);
}

TEST(SymbolicBudget, IterationCapSurfacesAsLimitError) {
  bdd::SymbolicOptions opts;
  // pipe8 takes three sweeps.
  opts.max_iterations = 1;
  SymbolicStg sym(benchmarks::gen_pipeline("pipe", 8), opts);
  EXPECT_THROW(sym.reachable(), util::LimitError);
}

TEST(SymbolicErrors, InconsistentStgRejectedLikeExplicit) {
  // x rises twice in a row — the same spec sg_test pins for the explicit
  // builder's SemanticsError.
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
  const stg::Stg spec = stg::parse_g(bad);
  EXPECT_THROW(sg::StateGraph::from_stg(spec), util::SemanticsError);
  SymbolicStg sym(spec);
  EXPECT_THROW(sym.reachable(), util::SemanticsError);
}

TEST(SymbolicErrors, UnsafeInitialMarkingRejected) {
  stg::Stg spec("unsafe");
  const stg::SignalId x = spec.add_signal("x", stg::SignalKind::Output);
  const petri::TransId up = spec.add_transition({x, stg::Polarity::Rise});
  const petri::TransId dn = spec.add_transition({x, stg::Polarity::Fall});
  const petri::PlaceId p0 = spec.net().add_place("p0");
  const petri::PlaceId p1 = spec.net().add_place("p1");
  spec.net().connect_pt(p0, up);
  spec.net().connect_tp(up, p1);
  spec.net().connect_pt(p1, dn);
  spec.net().connect_tp(dn, p0);
  petri::Marking m(2);
  m.add_token(p0);
  m.add_token(p0);  // two tokens in one place
  spec.set_initial_marking(m);
  SymbolicStg sym(spec);
  EXPECT_THROW(sym.reachable(), util::SemanticsError);
}

TEST(SymbolicErrors, ReachableContactRejected) {
  // x+ and y+ both produce into the place x- consumes; firing both before
  // x- is contact.  Both engines must reject with SemanticsError.
  stg::Stg spec("contact");
  const stg::SignalId x = spec.add_signal("x", stg::SignalKind::Output);
  const stg::SignalId y = spec.add_signal("y", stg::SignalKind::Output);
  const petri::TransId xup = spec.add_transition({x, stg::Polarity::Rise});
  const petri::TransId xdn = spec.add_transition({x, stg::Polarity::Fall});
  const petri::TransId yup = spec.add_transition({y, stg::Polarity::Rise});
  const petri::PlaceId px = spec.net().add_place("px");
  const petri::PlaceId py = spec.net().add_place("py");
  const petri::PlaceId mid = spec.net().add_place("mid");
  spec.net().connect_pt(px, xup);
  spec.net().connect_pt(py, yup);
  spec.net().connect_tp(xup, mid);
  spec.net().connect_tp(yup, mid);
  spec.net().connect_pt(mid, xdn);
  petri::Marking m(3);
  m.add_token(px);
  m.add_token(py);
  spec.set_initial_marking(m);
  EXPECT_THROW(sg::StateGraph::from_stg(spec), util::SemanticsError);
  SymbolicStg sym(spec);
  EXPECT_THROW(sym.reachable(), util::SemanticsError);
}

}  // namespace
