// Property-based suites (parameterized over seeds): invariants that must
// hold on *every* well-formed STG, exercised on randomly generated ones.
#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "core/input_set.hpp"
#include "core/module_graph.hpp"
#include "core/partition_sat.hpp"
#include "core/synthesis.hpp"
#include "encoding/csc_sat.hpp"
#include "logic/extract.hpp"
#include "logic/minimize.hpp"
#include "sat/solver.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "sg/projection.hpp"
#include "sg/state_graph.hpp"
#include "stg/parser.hpp"
#include "stg/writer.hpp"
#include "verify/verify.hpp"

namespace {

using namespace mps;

sg::StateGraph random_graph(std::uint64_t seed, int signals = 6) {
  util::Rng rng(seed);
  benchmarks::RandomStgOptions opts;
  opts.num_signals = signals;
  return sg::StateGraph::from_stg(benchmarks::random_stg(rng, opts));
}

/// Soundness of partition_sat's separability certificate on the first-round
/// module of every output of `g` (no state signals inserted yet).  Pinning
/// a pair to (0, 1) loses nothing against the unpinned single-pair m = 1
/// formula, by the 0<->1, Up<->Down symmetry of the per-signal clauses; and
/// every refutation holds for the full Figure-4 formula at every m.
void expect_certificate_sound(const sg::StateGraph& g, const std::string& name) {
  const core::PartitionSatOptions opts;
  sat::SolveOptions cdcl;
  cdcl.engine = sat::Engine::Cdcl;
  const auto solve = [&](const sat::Cnf& cnf) {
    return sat::Solver().solve(cnf, nullptr, nullptr, cdcl);
  };
  const sg::Assignments none(g.num_states());
  for (sg::SignalId o = 0; o < g.num_signals(); ++o) {
    if (g.is_input(o)) continue;
    const auto module = core::build_module(g, o, core::determine_input_set(g, o, none), none);
    const std::string where = name + "/" + g.signal(o).name;
    const encoding::Encoding base(module.proj.graph, 1, {}, {}, opts.encode);
    for (const auto& [i, j] : module.conflicts) {
      const encoding::Encoding single(module.proj.graph, 1, {{i, j}}, {}, opts.encode);
      EXPECT_EQ(solve(core::pinned_pair_formula(base, i, j)), solve(single.cnf()))
          << where << " pair (" << i << ", " << j << ")";
    }
    std::vector<core::FormulaStat> formulas;
    if (module.conflicts.empty() ||
        core::separability_certificate(module, opts, &formulas) != sat::Outcome::Unsat) {
      continue;
    }
    for (std::size_t m = static_cast<std::size_t>(std::max(1, module.lower_bound));
         m <= core::kMaxNewSignals; ++m) {
      const encoding::Encoding enc(module.proj.graph, m, module.conflicts,
                                   module.compatible_pairs, opts.encode);
      EXPECT_EQ(solve(enc.cnf()), sat::Outcome::Unsat) << where << " refuted, yet m=" << m;
    }
  }
}

TEST(CertificateProperty, SoundOnEveryTable1Module) {
  for (const benchmarks::Benchmark& b : benchmarks::table1_benchmarks()) {
    expect_certificate_sound(sg::StateGraph::from_stg(b.make()), b.name);
  }
}

class RandomStgProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomStgProperty, SeparabilityCertificateIsSound) {
  expect_certificate_sound(random_graph(GetParam()), "seed " + std::to_string(GetParam()));
}

TEST_P(RandomStgProperty, CodesAreConsistentAlongEveryEdge) {
  const auto g = random_graph(GetParam());
  g.check_consistency();  // aborts on violation
  SUCCEED();
}

TEST_P(RandomStgProperty, ProjectionCommutesWithCodes) {
  const auto g = random_graph(GetParam());
  util::Rng rng(GetParam() ^ 0xABCD);
  util::BitVec hide(g.num_signals());
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (rng.chance(0.4)) hide.set(s);
  }
  if (hide.count() == g.num_signals()) hide.reset(0);
  const auto proj = sg::hide_signals(g, hide);
  // Every original state maps somewhere; kept-signal values agree.
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    const sg::StateId c = proj.state_map[s];
    ASSERT_LT(c, proj.graph.num_states());
    for (std::size_t i = 0; i < proj.kept.size(); ++i) {
      ASSERT_EQ(g.code(s).test(proj.kept[i]),
                proj.graph.code(c).test(static_cast<sg::SignalId>(i)));
    }
  }
  // Quotient edges all come from original kept edges.
  std::size_t quotient_edges = proj.graph.num_edges();
  std::size_t kept_originals = 0;
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    for (const auto& e : g.out(s)) {
      if (!e.is_silent() && !hide.test(e.sig)) ++kept_originals;
    }
  }
  EXPECT_LE(quotient_edges, kept_originals);
}

TEST_P(RandomStgProperty, GWriterRoundTripsToIdentity) {
  // parse_g(write_g(stg)) is the identity on the STG itself: same
  // signals (name, kind, order), same net size, and the same unrolled
  // state graph state-for-state.  (The .g *text* is only stable up to
  // arc-line order — the writer emits transition-creation order, the
  // parser re-creates in first-appearance order — so byte equality is
  // not part of the contract; the structure is.)
  util::Rng rng(GetParam());
  benchmarks::RandomStgOptions opts;
  opts.num_signals = 6;
  const stg::Stg original = benchmarks::random_stg(rng, opts);
  const stg::Stg reparsed = stg::parse_g(stg::write_g(original));
  ASSERT_EQ(reparsed.num_signals(), original.num_signals());
  for (stg::SignalId s = 0; s < original.num_signals(); ++s) {
    EXPECT_EQ(reparsed.signal_name(s), original.signal_name(s));
    EXPECT_EQ(reparsed.signal_kind(s), original.signal_kind(s));
  }
  EXPECT_EQ(reparsed.net().num_transitions(), original.net().num_transitions());
  const auto g1 = sg::StateGraph::from_stg(original);
  const auto g2 = sg::StateGraph::from_stg(reparsed);
  ASSERT_EQ(g1.num_states(), g2.num_states());
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  ASSERT_EQ(g1.num_signals(), g2.num_signals());
  for (sg::StateId s = 0; s < g1.num_states(); ++s) {
    EXPECT_EQ(g1.code(s), g2.code(s));
    ASSERT_EQ(g1.out(s).size(), g2.out(s).size());
    for (std::size_t i = 0; i < g1.out(s).size(); ++i) {
      EXPECT_EQ(g1.out(s)[i], g2.out(s)[i]);
    }
  }
}

TEST_P(RandomStgProperty, CscConflictsAreSymmetricInvariants) {
  const auto g = random_graph(GetParam());
  const auto a = sg::analyze_csc(g);
  for (const auto& [s1, s2] : a.conflicts) {
    EXPECT_EQ(g.code(s1), g.code(s2));
    EXPECT_LT(s1, s2);
  }
  EXPECT_LE(a.conflicts.size() + a.compatible_pairs.size(), a.num_usc_pairs);
}

TEST_P(RandomStgProperty, ExtractedFunctionsAreWellDefinedAfterSynthesis) {
  const auto g = random_graph(GetParam());
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(g, opts);
  if (!r.success) GTEST_SKIP() << "synthesis failed: " << r.failure_reason;
  for (sg::SignalId s = 0; s < r.final_graph.num_signals(); ++s) {
    if (r.final_graph.is_input(s)) continue;
    const auto spec = logic::extract_next_state(r.final_graph, s);
    // ON and OFF are disjoint and cover all reachable codes.
    EXPECT_EQ(spec.on.size() + spec.off.size(),
              [&] {
                std::set<std::string> codes;
                for (sg::StateId st = 0; st < r.final_graph.num_states(); ++st) {
                  codes.insert(r.final_graph.code(st).to_string());
                }
                return codes.size();
              }());
  }
}

TEST_P(RandomStgProperty, MinimizedCoversAreValidPrimeAndIrredundant) {
  const auto g = random_graph(GetParam());
  const auto r = core::modular_synthesis(g);
  if (!r.success) GTEST_SKIP();
  for (const auto& [name, cover] : r.covers) {
    const auto sig = r.final_graph.find_signal(name);
    const auto spec = logic::extract_next_state(r.final_graph, sig);
    EXPECT_TRUE(logic::cover_is_valid(spec, cover)) << name;
    EXPECT_TRUE(logic::cover_is_irredundant(spec, cover)) << name;
    for (const auto& cube : cover.cubes()) {
      EXPECT_TRUE(logic::cube_is_prime(spec, cube)) << name;
    }
  }
}

TEST_P(RandomStgProperty, SynthesisFixesAllConflicts) {
  const auto g = random_graph(GetParam());
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(g, opts);
  if (!r.success) GTEST_SKIP();
  EXPECT_TRUE(sg::analyze_csc(r.final_graph).satisfied());
  const auto report = verify::verify_synthesis(r.final_graph, {});
  EXPECT_TRUE(report.codes_consistent);
  EXPECT_TRUE(report.csc_satisfied);
}

TEST_P(RandomStgProperty, EncodedSolutionsAlwaysDecodeCoherently) {
  const auto g = random_graph(GetParam(), 5);
  const auto analysis = sg::analyze_csc(g);
  if (analysis.conflicts.empty()) GTEST_SKIP();
  for (std::size_t m = 1; m <= 2; ++m) {
    const encoding::Encoding enc(g, m, analysis.conflicts, analysis.compatible_pairs);
    sat::Model model;
    sat::SolveOptions sopts;
    sopts.max_backtracks = 200000;
    if (sat::Solver().solve(enc.cnf(), &model, nullptr, sopts) != sat::Outcome::Sat) {
      continue;
    }
    sg::Assignments assigns(g.num_states());
    enc.decode(model, &assigns, "n");
    EXPECT_FALSE(assigns.check_coherence(g).has_value()) << "m=" << m;
    // Expansion must preserve behaviour.
    const auto ex = sg::expand(g, assigns);
    EXPECT_TRUE(verify::expansion_simulates(g, ex.graph, ex.origin)) << "m=" << m;
    return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStgProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                                           377, 610, 987, 1597));

// --- minimizer property sweep -------------------------------------------

class MinimizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimizerProperty, HeuristicNeverBeatenByMoreThanExactBound) {
  util::Rng rng(GetParam());
  logic::SopSpec spec;
  spec.num_vars = 5;
  for (int x = 0; x < 32; ++x) {
    util::BitVec c(5);
    for (int v = 0; v < 5; ++v) c.set(v, (x >> v) & 1);
    const double dice = rng.uniform();
    if (dice < 0.35) {
      spec.on.push_back(c);
    } else if (dice < 0.75) {
      spec.off.push_back(c);
    }
  }
  if (spec.on.empty()) GTEST_SKIP();
  const auto exact = logic::exact_minimize(spec);
  ASSERT_TRUE(exact.has_value());
  logic::MinimizeOptions opts;
  opts.try_exact = true;
  const auto result = logic::minimize(spec, opts);
  EXPECT_TRUE(logic::cover_is_valid(spec, result));
  // With the exact path opted in, minimize() picks the better of both:
  // never worse than exact.
  EXPECT_LE(result.literal_count(), exact->literal_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizerProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

}  // namespace
