// End-to-end integration tests: full synthesis runs over the Table-1
// benchmark suite with complete verification, plus cross-method sanity.
#include <gtest/gtest.h>

#include "baseline/lavagno.hpp"
#include "baseline/vanbekbergen.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "stg/parser.hpp"
#include "stg/writer.hpp"
#include "verify/verify.hpp"

namespace {

using namespace mps;

/// Modular synthesis on every small/medium benchmark, fully verified.
/// (alex-nonfc contains an arbiter — output choice — so semi-modularity is
/// not expected there; all other checks still hold.)
class ModularOnBenchmark : public ::testing::TestWithParam<const char*> {};

TEST_P(ModularOnBenchmark, SynthesizesAndVerifies) {
  const auto* b = benchmarks::find_benchmark(GetParam());
  ASSERT_NE(b, nullptr);
  const auto r = core::modular_synthesis(b->make());
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GT(r.final_signals, r.initial_signals);  // all rows insert signals
  EXPECT_GE(r.final_states, r.initial_states);
  EXPECT_GT(r.total_literals, 0u);

  const auto report = verify::verify_synthesis(r.final_graph, r.covers);
  EXPECT_TRUE(report.codes_consistent) << GetParam();
  EXPECT_TRUE(report.csc_satisfied) << GetParam();
  EXPECT_TRUE(report.covers_valid) << GetParam();
  // The gate-level check holds even for alex-nonfc: its arbiter makes the
  // *spec* non-semi-modular (output choice), but the circuit's disablings
  // are exactly the spec's own, which the SI verifier sanctions.
  EXPECT_TRUE(report.circuit_ok)
      << GetParam() << ": " << (report.issues.empty() ? "" : report.issues.back());
  if (std::string(GetParam()) != "alex-nonfc") {
    EXPECT_TRUE(report.semi_modular) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(SmallAndMedium, ModularOnBenchmark,
                         ::testing::Values("vbe-ex1", "sendr-done", "nousc-ser", "vbe-ex2",
                                           "nouse", "sbuf-read-ctl", "fifo", "wrdata",
                                           "alloc-outbound", "pa", "atod", "sbuf-send-ctl",
                                           "sbuf-send-pkt2", "alex-nonfc", "ram-read-sbuf",
                                           "pe-rcv-ifc-fc", "nak-pa", "vbe4a",
                                           "sbuf-ram-write", "mmu1"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Integration, LargeBenchmarksSynthesizeQuickly) {
  // The headline property: the big four finish in seconds.
  for (const char* name : {"mmu0", "mr1", "mr0"}) {
    const auto* b = benchmarks::find_benchmark(name);
    core::SynthesisOptions opts;
    const auto r = core::modular_synthesis(b->make(), opts);
    ASSERT_TRUE(r.success) << name << ": " << r.failure_reason;
    EXPECT_TRUE(sg::analyze_csc(r.final_graph).satisfied()) << name;
    EXPECT_LT(r.seconds, 60.0) << name;
  }
}

TEST(Integration, GFileRoundTripThenSynthesis) {
  // Write a benchmark to .g text, re-parse, synthesize: same result.
  const auto* b = benchmarks::find_benchmark("atod");
  const auto original = b->make();
  const auto reparsed = stg::parse_g(stg::write_g(original));
  const auto r1 = core::modular_synthesis(original);
  const auto r2 = core::modular_synthesis(reparsed);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r1.final_states, r2.final_states);
  EXPECT_EQ(r1.final_signals, r2.final_signals);
  EXPECT_EQ(r1.total_literals, r2.total_literals);
}

TEST(Integration, ModuleFormulasAreOrdersOfMagnitudeSmaller) {
  // The paper's mmu0 narrative: the direct formula is enormous, the
  // modular formulas are tiny.  Certificate solves are not Figure-4
  // formulas and are left out.
  const auto* b = benchmarks::find_benchmark("mmu0");
  const auto g = sg::StateGraph::from_stg(b->make());
  const auto analysis = sg::analyze_csc(g);
  const encoding::Encoding direct(g, static_cast<std::size_t>(analysis.lower_bound),
                                  analysis.conflicts, analysis.compatible_pairs);
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(g, opts);
  ASSERT_TRUE(r.success);
  std::size_t largest_module_formula = 0;
  for (const auto& m : r.modules) {
    for (const auto& f : m.formulas) {
      if (!f.certificate) largest_module_formula = std::max(largest_module_formula, f.num_clauses);
    }
  }
  ASSERT_GT(largest_module_formula, 0u);
  std::size_t total_module_clauses = 0;
  for (const auto& m : r.modules) {
    for (const auto& f : m.formulas) total_module_clauses += f.certificate ? 0 : f.num_clauses;
  }
  EXPECT_GT(direct.cnf().num_clauses(), 2 * largest_module_formula)
      << "direct " << direct.cnf().num_clauses() << " vs largest module "
      << largest_module_formula;
  EXPECT_GT(direct.cnf().num_clauses(), total_module_clauses)
      << "direct " << direct.cnf().num_clauses() << " vs all modules "
      << total_module_clauses;
}

TEST(Integration, AreasAreWithinFamilyRange) {
  // Literal counts of the three methods stay within a small factor of each
  // other on instances all three solve.
  for (const char* name : {"vbe-ex1", "nouse", "sbuf-read-ctl", "atod"}) {
    const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
    const auto m = core::modular_synthesis(g);
    const auto v = baseline::direct_synthesis(g);
    ASSERT_TRUE(m.success && v.success) << name;
    EXPECT_LE(m.total_literals, 3 * v.total_literals) << name;
    EXPECT_LE(v.total_literals, 3 * m.total_literals) << name;
  }
}

TEST(Integration, RepeatedSynthesisOnExpandedGraphIsIdempotent) {
  // Synthesizing an already CSC-clean result changes nothing.
  const auto r1 = core::modular_synthesis(
      sg::StateGraph::from_stg(benchmarks::find_benchmark("nouse")->make()));
  ASSERT_TRUE(r1.success);
  const auto r2 = core::modular_synthesis(r1.final_graph);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r2.final_states, r1.final_states);
  EXPECT_EQ(r2.final_signals, r1.final_signals);
  EXPECT_EQ(r2.rounds, 0);
}

}  // namespace
