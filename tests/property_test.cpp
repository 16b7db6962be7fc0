// Property-based suites (parameterized over seeds): invariants that must
// hold on *every* well-formed STG, exercised on randomly generated ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <tuple>

#include "bdd/symbolic.hpp"
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

stg::Stg random_spec(std::uint64_t seed, int signals = 6) {
  util::Rng rng(seed);
  benchmarks::RandomStgOptions opts;
  opts.num_signals = signals;
  return benchmarks::random_stg(rng, opts);
}

sg::StateGraph random_graph(std::uint64_t seed, int signals = 6) {
  return sg::StateGraph::from_stg(random_spec(seed, signals));
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

/// The random specs every RandomStgProperty test runs on, by seed.
constexpr std::uint64_t kRandomSeeds[] = {1,  2,   3,   5,   8,   13,  21,  34,
                                          55, 89, 144, 233, 377, 610, 987, 1597};

/// Conflicts and lower bound of the module `hidden` yields on the complete
/// graph, carrying `assigns`; nullopt on a Figure-3 violation.
std::optional<std::pair<std::size_t, int>> reprojected_csc(const sg::StateGraph& g,
                                                           sg::SignalId o,
                                                           const util::BitVec& hidden,
                                                           const sg::Assignments& assigns) {
  const sg::Projection proj = sg::hide_signals(g, hidden, assigns.empty() ? nullptr : &assigns);
  if (!proj.assignments_consistent) return std::nullopt;
  sg::CscOptions copts;
  copts.focus_signal =
      static_cast<sg::SignalId>(std::find(proj.kept.begin(), proj.kept.end(), o) -
                                proj.kept.begin());
  const sg::CscResult csc = sg::analyze_csc(
      proj.graph, proj.assignments.empty() ? nullptr : &proj.assignments, copts);
  return std::make_pair(csc.conflicts.size(), csc.lower_bound);
}

/// Figure 2 as determine_input_set ran it before probing on the quotient:
/// every probe re-projects the complete graph.  The differential oracle.
core::InputSetResult input_set_by_reprojection(const sg::StateGraph& g, sg::SignalId o,
                                               const sg::Assignments& assigns) {
  core::InputSetResult result;
  result.triggers = core::sg_trigger_signals(g, o);
  util::BitVec hidden(g.num_signals());
  result.kept = util::BitVec(g.num_signals());
  result.kept.set(o);
  for (const sg::SignalId t : result.triggers) result.kept.set(t);
  std::vector<sg::SignalId> pending;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (!result.kept.test(s)) pending.push_back(s);
  }
  auto [n_csc, lb] = *reprojected_csc(g, o, hidden, assigns);
  for (int pass = 0; pass < 4 && !pending.empty(); ++pass) {
    std::vector<sg::SignalId> rejected;
    for (const sg::SignalId s : pending) {
      hidden.set(s);
      const auto probed = reprojected_csc(g, o, hidden, assigns);
      if (probed.has_value() && probed->first <= n_csc && probed->second <= lb) {
        std::tie(n_csc, lb) = *probed;
      } else {
        hidden.reset(s);
        rejected.push_back(s);
      }
    }
    const bool stuck = rejected.size() == pending.size();
    pending = std::move(rejected);
    if (stuck) break;
  }
  for (const sg::SignalId s : pending) result.kept.set(s);
  std::vector<std::size_t> kept_ss(assigns.num_signals());
  std::iota(kept_ss.begin(), kept_ss.end(), 0u);
  for (std::size_t k = assigns.num_signals(); k-- > 0;) {
    std::vector<std::size_t> without;
    for (const std::size_t x : kept_ss) {
      if (x != k) without.push_back(x);
    }
    const auto probed = reprojected_csc(g, o, hidden, assigns.subset(without));
    if (probed.has_value() && probed->first <= n_csc) {
      kept_ss = std::move(without);
      n_csc = probed->first;
    }
  }
  result.kept_state_signals = std::move(kept_ss);
  result.module_conflicts = n_csc;
  result.module_lower_bound = lb;
  return result;
}

/// Sees each output's input set in a replayed round, before its module is
/// solved, together with the round's accumulated assignments.
using OutputHook = std::function<void(const sg::StateGraph& g, sg::SignalId o,
                                      const sg::Assignments& assigns,
                                      const core::InputSetResult& isr, const std::string& where)>;

/// Replay the modular flow's rounds on `input`: per round, every output's
/// module in output order, then the rescue round on the complete graph if
/// no module inserted anything.  Returns each round's graph and the
/// assignments it was expanded with, in order.
std::vector<std::pair<sg::StateGraph, sg::Assignments>> replay_modular_rounds(
    const sg::StateGraph& input, const std::string& name, const OutputHook& on_output = {}) {
  const core::PartitionSatOptions opts;
  std::vector<std::pair<sg::StateGraph, sg::Assignments>> rounds;
  sg::StateGraph g = sg::contract_silent(input);
  for (int round = 1; round <= core::SynthesisOptions{}.max_rounds; ++round) {
    const sg::CscResult csc = sg::analyze_csc(g);
    if (csc.satisfied()) break;
    sg::Assignments assigns(g.num_states());
    for (sg::SignalId o = 0; o < g.num_signals(); ++o) {
      if (g.is_input(o)) continue;
      const core::InputSetResult isr = core::determine_input_set(g, o, assigns);
      if (on_output) {
        on_output(g, o, assigns, isr,
                  name + " round " + std::to_string(round) + " output " + g.signal(o).name);
      }
      const core::ModuleGraph module = core::build_module(g, o, isr, assigns);
      if (module.conflicts.empty()) continue;
      const core::PartitionSatResult psr = core::partition_sat(module, "m", opts);
      if (psr.success) core::propagate(module, psr.module_assignments, &assigns, g.num_signals());
    }
    if (assigns.empty()) {  // the rescue round on the complete graph
      std::vector<core::FormulaStat> formulas;
      if (core::direct_round(g, csc, opts.encode, opts.solve, "rescue", &assigns, &formulas) !=
          sat::Outcome::Sat) {
        break;
      }
    }
    sg::StateGraph next = sg::expand(g, assigns).graph;
    rounds.emplace_back(std::move(g), std::move(assigns));
    g = std::move(next);
  }
  return rounds;
}

/// Compare determine_input_set with the oracle for every output of every
/// replayed round, against that round's accumulated assignments.
void expect_input_sets_match_oracle(const sg::StateGraph& input, const std::string& name) {
  replay_modular_rounds(input, name,
                        [](const sg::StateGraph& g, sg::SignalId o, const sg::Assignments& assigns,
                           const core::InputSetResult& isr, const std::string& where) {
                          const core::InputSetResult oracle =
                              input_set_by_reprojection(g, o, assigns);
                          EXPECT_EQ(isr.kept.to_string(), oracle.kept.to_string()) << where;
                          EXPECT_EQ(isr.kept_state_signals, oracle.kept_state_signals) << where;
                          EXPECT_EQ(isr.module_conflicts, oracle.module_conflicts) << where;
                          EXPECT_EQ(isr.module_lower_bound, oracle.module_lower_bound) << where;
                        });
}

TEST(InputSet, IncrementalMatchesFullReprojection) {
  for (const benchmarks::Benchmark& b : benchmarks::table1_benchmarks()) {
    expect_input_sets_match_oracle(sg::StateGraph::from_stg(b.make()), b.name);
  }
  expect_input_sets_match_oracle(
      sg::StateGraph::from_stg(benchmarks::gen_parallelizer("par4", 4)), "par4");
  expect_input_sets_match_oracle(sg::StateGraph::from_stg(benchmarks::gen_pipeline("pipe6", 6)),
                                 "pipe6");
  expect_input_sets_match_oracle(
      sg::StateGraph::from_stg(benchmarks::gen_sequencer("seq10", 10)), "seq10");
  for (const std::uint64_t seed : kRandomSeeds) {
    expect_input_sets_match_oracle(random_graph(seed), "seed " + std::to_string(seed));
  }
}

/// The reference expansion: a map from (original state, phase word) to
/// expanded id and a frontier queue, the straightforward breadth-first
/// search sg::expand must reproduce state for state and edge for edge.
sg::Expansion reference_expand(const sg::StateGraph& g, const sg::Assignments& assigns) {
  const std::size_t m = assigns.num_signals();
  std::vector<sg::SignalInfo> infos = g.signals();
  const auto base = static_cast<sg::SignalId>(infos.size());
  for (std::size_t k = 0; k < m; ++k) infos.push_back({assigns.name(k), false});
  sg::Expansion result;
  result.graph = sg::StateGraph(std::move(infos));
  std::map<std::pair<sg::StateId, std::uint64_t>, sg::StateId> index;
  std::vector<std::uint64_t> phases_of;
  std::deque<sg::StateId> frontier;
  const auto intern = [&](sg::StateId orig, std::uint64_t phases) {
    const auto [it, fresh] = index.try_emplace({orig, phases}, result.graph.num_states());
    if (!fresh) return it->second;
    util::BitVec code = g.code(orig);
    code.resize(g.num_signals() + m);
    for (std::size_t k = 0; k < m; ++k) code.set(base + k, (phases >> k) & 1);
    result.graph.add_state(std::move(code));
    result.origin.push_back(orig);
    phases_of.push_back(phases);
    frontier.push_back(it->second);
    return it->second;
  };
  std::uint64_t init_phases = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (sg::phase_of(assigns.value(k, g.initial()))) init_phases |= std::uint64_t{1} << k;
  }
  result.graph.set_initial(intern(g.initial(), init_phases));
  while (!frontier.empty()) {
    const sg::StateId cur = frontier.front();
    frontier.pop_front();
    const sg::StateId orig = result.origin[cur];
    const std::uint64_t phases = phases_of[cur];
    for (std::size_t k = 0; k < m; ++k) {
      const std::uint64_t bit = std::uint64_t{1} << k;
      const sg::V4 v = assigns.value(k, orig);
      if (v == sg::V4::Up && (phases & bit) == 0) {
        const sg::StateId to = intern(orig, phases | bit);
        result.graph.add_edge(cur, sg::Edge{static_cast<sg::SignalId>(base + k), true, to});
      } else if (v == sg::V4::Down && (phases & bit) != 0) {
        const sg::StateId to = intern(orig, phases & ~bit);
        result.graph.add_edge(cur, sg::Edge{static_cast<sg::SignalId>(base + k), false, to});
      }
    }
    for (const sg::Edge& e : g.out(orig)) {
      bool ok = true;
      for (std::size_t k = 0; k < m && ok; ++k) {
        ok = sg::entry_phase_ok(assigns.value(k, e.to), (phases >> k) & 1);
      }
      if (ok) result.graph.add_edge(cur, sg::Edge{e.sig, e.rise, intern(e.to, phases)});
    }
  }
  result.graph.seal();
  return result;
}

/// sg::expand gives the reference's states (codes and origins, by id) and
/// edges (in order) on every replayed round of the modular flow on `input`.
void expect_expansions_match_reference(const sg::StateGraph& input, const std::string& name) {
  const auto rounds = replay_modular_rounds(input, name);
  EXPECT_FALSE(rounds.empty()) << name;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const auto& [g, assigns] = rounds[r];
    const std::string where = name + " round " + std::to_string(r + 1);
    const sg::Expansion got = sg::expand(g, assigns);
    const sg::Expansion want = reference_expand(g, assigns);
    ASSERT_EQ(got.graph.num_states(), want.graph.num_states()) << where;
    EXPECT_EQ(got.graph.num_signals(), want.graph.num_signals()) << where;
    EXPECT_EQ(got.graph.initial(), want.graph.initial()) << where;
    EXPECT_EQ(got.origin, want.origin) << where;
    for (sg::StateId s = 0; s < got.graph.num_states(); ++s) {
      ASSERT_EQ(got.graph.code(s), want.graph.code(s)) << where << " state " << s;
      ASSERT_TRUE(std::ranges::equal(got.graph.out(s), want.graph.out(s)))
          << where << " state " << s;
    }
  }
}

TEST(Expand, MatchesReferenceOnModularRounds) {
  expect_expansions_match_reference(
      sg::StateGraph::from_stg(benchmarks::find_benchmark("mr0")->make()), "mr0");
  expect_expansions_match_reference(
      sg::StateGraph::from_stg(benchmarks::gen_pipeline("pipe6", 6)), "pipe6");
}

/// sg::code_classes partitions the states of `g`: every state in exactly
/// one class, each class's members ascending and sharing one code, class
/// codes strictly increasing in to_string() order.
void expect_code_classes_partition(const sg::StateGraph& g, const std::string& name) {
  const sg::CodeClasses classes = sg::code_classes(g);
  ASSERT_EQ(classes.order.size(), g.num_states()) << name;
  ASSERT_EQ(classes.class_of.size(), g.num_states()) << name;
  ASSERT_FALSE(classes.begin.empty()) << name;
  EXPECT_EQ(classes.begin.front(), 0u) << name;
  EXPECT_EQ(classes.begin.back(), g.num_states()) << name;
  std::vector<int> seen(g.num_states(), 0);
  std::string previous;
  for (std::size_t c = 0; c < classes.num_classes(); ++c) {
    const std::span<const sg::StateId> members = classes.members(c);
    ASSERT_FALSE(members.empty()) << name << " class " << c;
    const std::string code = g.code(members.front()).to_string();
    if (c > 0) {
      EXPECT_LT(previous, code) << name << " class " << c;
    }
    previous = code;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const sg::StateId s = members[i];
      ASSERT_LT(s, g.num_states()) << name;
      if (i > 0) {
        EXPECT_LT(members[i - 1], s) << name << " class " << c;
      }
      EXPECT_EQ(g.code(s).to_string(), code) << name << " state " << s;
      EXPECT_EQ(classes.class_of[s], c) << name << " state " << s;
      ++seen[s];
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(g.num_states()))
      << name;
}

TEST(CodeClasses, PartitionStatesInCodeOrder) {
  for (const benchmarks::Benchmark& b : benchmarks::table1_benchmarks()) {
    expect_code_classes_partition(sg::StateGraph::from_stg(b.make()), b.name);
  }
  expect_code_classes_partition(sg::StateGraph::from_stg(benchmarks::gen_pipeline("pipe6", 6)),
                                "pipe6");
  for (const std::uint64_t seed : kRandomSeeds) {
    expect_code_classes_partition(random_graph(seed), "seed " + std::to_string(seed));
  }
}

/// The symbolic engine against the explicit one on `spec`: the same number
/// of reachable states, every explicit code reachable symbolically, and the
/// same CSC verdict.
void expect_symbolic_matches_explicit(const stg::Stg& spec, const std::string& name) {
  const sg::StateGraph g = sg::StateGraph::from_stg(spec);
  bdd::SymbolicStg sym(spec);
  EXPECT_EQ(sym.num_states(), static_cast<double>(g.num_states())) << name;
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    ASSERT_TRUE(sym.code_reachable(g.code(s))) << name << " state " << s;
  }
  EXPECT_EQ(sym.check_csc().holds, sg::analyze_csc(g).satisfied()) << name;
}

TEST(SymbolicReach, MatchesExplicitOnGenerators) {
  for (int stages = 6; stages <= 9; ++stages) {
    expect_symbolic_matches_explicit(benchmarks::gen_pipeline("pipe", stages),
                                     "pipeline:" + std::to_string(stages));
  }
  for (int channels = 4; channels <= 5; ++channels) {
    expect_symbolic_matches_explicit(benchmarks::gen_parallelizer("par", channels),
                                     "parallelizer:" + std::to_string(channels));
  }
  expect_symbolic_matches_explicit(benchmarks::gen_sequencer("seq", 10), "sequencer:10");
  expect_symbolic_matches_explicit(benchmarks::gen_toggle_ring("ring", 3), "toggle:3");
}

class RandomStgProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomStgProperty, SymbolicReachMatchesExplicit) {
  expect_symbolic_matches_explicit(random_spec(GetParam()), "seed " + std::to_string(GetParam()));
}

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

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStgProperty, ::testing::ValuesIn(kRandomSeeds));

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
