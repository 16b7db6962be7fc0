#include <gtest/gtest.h>

#include <limits>

#include "sat/cnf.hpp"
#include "sat/dimacs.hpp"
#include "sat/engine.hpp"
#include "sat/local_search.hpp"
#include "sat/solver.hpp"
#include "util/common.hpp"

namespace {

using namespace mps::sat;

TEST(Lit, PackingRoundTrips) {
  const Lit a = pos(7);
  EXPECT_EQ(a.var(), 7u);
  EXPECT_FALSE(a.negated());
  const Lit b = ~a;
  EXPECT_EQ(b.var(), 7u);
  EXPECT_TRUE(b.negated());
  EXPECT_EQ(~b, a);
  EXPECT_FALSE(Lit{}.valid());
}

TEST(Cnf, NormalizationDedupsAndDropsTautologies) {
  Cnf cnf;
  const Var x = cnf.new_var();
  const Var y = cnf.new_var();
  cnf.add_clause({pos(x), pos(x), neg(y)});
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clause(0).size(), 2u);  // duplicate literal removed
  cnf.add_clause({pos(x), neg(x)});     // tautology: dropped
  EXPECT_EQ(cnf.num_clauses(), 1u);
}

TEST(Cnf, SatisfiedBy) {
  Cnf cnf;
  const Var x = cnf.new_var();
  const Var y = cnf.new_var();
  cnf.add_clause({pos(x), pos(y)});
  cnf.add_clause({neg(x)});
  Model m{false, true};
  EXPECT_TRUE(cnf.satisfied_by(m));
  m[1] = false;
  EXPECT_FALSE(cnf.satisfied_by(m));
}

TEST(Solver, TrivialSat) {
  Cnf cnf;
  const Var x = cnf.new_var();
  cnf.add_clause({pos(x)});
  Model m;
  EXPECT_EQ(Solver().solve(cnf, &m), Outcome::Sat);
  EXPECT_TRUE(m[x]);
}

TEST(Solver, TrivialUnsat) {
  Cnf cnf;
  const Var x = cnf.new_var();
  cnf.add_clause({pos(x)});
  cnf.add_clause({neg(x)});
  EXPECT_EQ(Solver().solve(cnf), Outcome::Unsat);
}

TEST(Solver, EmptyClauseIsUnsat) {
  Cnf cnf;
  cnf.new_var();
  cnf.add_clause(std::vector<Lit>{});
  EXPECT_EQ(Solver().solve(cnf), Outcome::Unsat);
}

TEST(Solver, EmptyFormulaIsSat) {
  Cnf cnf;
  cnf.new_vars(3);
  Model m;
  EXPECT_EQ(Solver().solve(cnf, &m), Outcome::Sat);
  EXPECT_EQ(m.size(), 3u);
}

TEST(Solver, AllFourBinaryCombinationsUnsat) {
  Cnf cnf;
  const Var x = cnf.new_var();
  const Var y = cnf.new_var();
  cnf.add_clause({pos(x), pos(y)});
  cnf.add_clause({pos(x), neg(y)});
  cnf.add_clause({neg(x), pos(y)});
  cnf.add_clause({neg(x), neg(y)});
  EXPECT_EQ(Solver().solve(cnf), Outcome::Unsat);
}

/// Pigeonhole PHP(n+1, n): classically hard for resolution-style search;
/// small instances prove the solver's completeness on structured UNSAT.
Cnf pigeonhole(int pigeons, int holes) {
  Cnf cnf;
  std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) at[p][h] = cnf.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(pos(at[p][h]));
    cnf.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_clause({neg(at[p1][h]), neg(at[p2][h])});
      }
    }
  }
  return cnf;
}

TEST(Solver, PigeonholeUnsat) {
  EXPECT_EQ(Solver().solve(pigeonhole(4, 3)), Outcome::Unsat);
  EXPECT_EQ(Solver().solve(pigeonhole(5, 4)), Outcome::Unsat);
}

TEST(Solver, PigeonholeSatWhenEnoughHoles) {
  Model m;
  const Cnf cnf = pigeonhole(4, 4);
  EXPECT_EQ(Solver().solve(cnf, &m), Outcome::Sat);
  EXPECT_TRUE(cnf.satisfied_by(m));
}

TEST(Solver, BacktrackLimitReported) {
  SolveOptions opts;
  opts.max_backtracks = 1;
  const Outcome out = Solver().solve(pigeonhole(6, 5), nullptr, nullptr, opts);
  EXPECT_EQ(out, Outcome::Limit);
}

TEST(Solver, StatsArePopulated) {
  SolveStats stats;
  Model m;
  Solver().solve(pigeonhole(4, 4), &m, &stats);
  EXPECT_GT(stats.decisions, 0);
  EXPECT_GE(stats.propagations, 0);
  EXPECT_GE(stats.seconds, 0.0);
}

/// Random 3-SAT at low clause density: almost surely satisfiable.
Cnf random_3sat(mps::util::Rng& rng, int vars, int clauses) {
  Cnf cnf;
  cnf.new_vars(vars);
  for (int c = 0; c < clauses; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit::make(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    }
    cnf.add_clause(clause);
  }
  return cnf;
}

TEST(Solver, RandomEasySatInstances) {
  mps::util::Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const Cnf cnf = random_3sat(rng, 30, 60);  // density 2.0: easy SAT
    Model m;
    ASSERT_EQ(Solver().solve(cnf, &m), Outcome::Sat);
    EXPECT_TRUE(cnf.satisfied_by(m));
  }
}

TEST(Solver, AgreesWithBruteForceOnSmallFormulas) {
  mps::util::Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    const int vars = 6;
    const Cnf cnf = random_3sat(rng, vars, 24);  // density 4.0: mixed outcomes
    bool brute_sat = false;
    for (int x = 0; x < (1 << vars) && !brute_sat; ++x) {
      Model m(vars);
      for (int v = 0; v < vars; ++v) m[v] = (x >> v) & 1;
      brute_sat = cnf.satisfied_by(m);
    }
    Model m;
    const Outcome out = Solver().solve(cnf, &m);
    EXPECT_EQ(out, brute_sat ? Outcome::Sat : Outcome::Unsat) << "instance " << i;
  }
}

TEST(WalkSat, FindsEasySolutions) {
  mps::util::Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const Cnf cnf = random_3sat(rng, 25, 50);
    Model m;
    if (walksat(cnf, &m)) {
      EXPECT_TRUE(cnf.satisfied_by(m));
    }
  }
}

TEST(WalkSat, SolvesForcedAssignments) {
  Cnf cnf;
  const Var x = cnf.new_var();
  const Var y = cnf.new_var();
  cnf.add_clause({pos(x)});
  cnf.add_clause({neg(x), pos(y)});
  Model m;
  LocalSearchStats stats;
  ASSERT_TRUE(walksat(cnf, &m, &stats));
  EXPECT_TRUE(m[x]);
  EXPECT_TRUE(m[y]);
  EXPECT_GE(stats.tries, 1);
}

TEST(WalkSat, GivesUpOnUnsat) {
  LocalSearchOptions opts;
  opts.max_flips = 2000;
  opts.max_tries = 2;
  EXPECT_FALSE(walksat(pigeonhole(4, 3), nullptr, nullptr, opts));
}

TEST(Dimacs, WriteParseRoundTrip) {
  Cnf cnf;
  const Var x = cnf.new_var();
  const Var y = cnf.new_var();
  const Var z = cnf.new_var();
  cnf.add_clause({pos(x), neg(y)});
  cnf.add_clause({pos(y), pos(z)});
  cnf.add_clause({neg(z)});
  const std::string text = write_dimacs(cnf, "round trip");
  const Cnf back = parse_dimacs(text);
  EXPECT_EQ(back.num_vars(), cnf.num_vars());
  EXPECT_EQ(back.num_clauses(), cnf.num_clauses());
  // Equisatisfiable with identical models.
  Model m;
  ASSERT_EQ(Solver().solve(back, &m), Outcome::Sat);
  EXPECT_TRUE(cnf.satisfied_by(m));
}

TEST(Dimacs, ParsesCommentsAndNegatives) {
  const Cnf cnf = parse_dimacs("c hello\np cnf 2 2\n1 -2 0\n-1 2 0\n");
  EXPECT_EQ(cnf.num_vars(), 2u);
  EXPECT_EQ(cnf.num_clauses(), 2u);
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_THROW(parse_dimacs("p cnf x y\n"), mps::util::Error);
  EXPECT_THROW(parse_dimacs("1 2 0\n"), mps::util::ParseError);       // clause before header
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n5 0\n"), mps::util::ParseError);  // var out of range
}

// Regression: the truncation check compared the declared clause count
// against the declared clause count (always equal), so a truncated file —
// fewer clauses than the header promises — parsed silently.
TEST(Dimacs, RejectsFewerClausesThanDeclared) {
  try {
    parse_dimacs("p cnf 2 3\n1 2 0\n-1 0\n");
    FAIL() << "truncated DIMACS must not parse";
  } catch (const mps::util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
  // A dropped tautology also trips the check; the message points at the
  // header so the producer knows to re-emit it.
  EXPECT_THROW(parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n"), mps::util::ParseError);
}

TEST(Dimacs, AcceptsMoreClausesThanDeclared) {
  // Some generators undercount; extra clauses are kept, not rejected.
  const Cnf cnf = parse_dimacs("p cnf 2 1\n1 2 0\n-1 2 0\n-2 0\n");
  EXPECT_EQ(cnf.num_clauses(), 3u);
}

TEST(Dimacs, RejectsBadHeaders) {
  EXPECT_THROW(parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n"), mps::util::ParseError);  // duplicate
  EXPECT_THROW(parse_dimacs("p cnf -1 1\n"), mps::util::ParseError);  // negative var count
  EXPECT_THROW(parse_dimacs("p cnf 2 -1\n"), mps::util::ParseError);  // negative clause count
}

/// Thousands of forced not-equal pairs: (a ∨ b) ∧ (¬a ∨ ¬b).  Every
/// decision triggers a unit propagation and none ever conflicts, so the
/// search runs decision-after-decision with zero backtracks — the shape
/// that used to dodge the time-limit check entirely (it only ran every 256
/// backtracks).
Cnf propagation_heavy(int pairs) {
  Cnf cnf;
  for (int i = 0; i < pairs; ++i) {
    const Var a = cnf.new_var();
    const Var b = cnf.new_var();
    cnf.add_clause({pos(a), pos(b)});
    cnf.add_clause({neg(a), neg(b)});
  }
  return cnf;
}

TEST(Solver, TimeLimitHonoredWithoutBacktracks) {
  SolveOptions opts;
  opts.time_limit_s = 1e-3;
  SolveStats stats;
  mps::util::Timer timer;
  const Outcome out = Solver().solve(propagation_heavy(30000), nullptr, &stats, opts);
  EXPECT_EQ(out, Outcome::Limit);
  EXPECT_EQ(stats.backtracks, 0);  // the conflict-path check cannot have fired
  EXPECT_LT(timer.seconds(), 5.0);
}

TEST(Solver, PropagationHeavyInstanceIsSatWithoutLimits) {
  Model m;
  const Cnf cnf = propagation_heavy(500);
  SolveStats stats;
  ASSERT_EQ(Solver().solve(cnf, &m, &stats), Outcome::Sat);
  EXPECT_TRUE(cnf.satisfied_by(m));
  EXPECT_EQ(stats.backtracks, 0);
}

TEST(Solver, DeadlineStopsSearch) {
  SolveOptions opts;
  opts.deadline = mps::util::Deadline::at(std::chrono::steady_clock::now() -
                                          std::chrono::seconds(1));
  EXPECT_EQ(Solver().solve(pigeonhole(8, 7), nullptr, nullptr, opts), Outcome::Limit);
  opts.deadline =
      mps::util::Deadline::at(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_EQ(Solver().solve(pigeonhole(4, 3), nullptr, nullptr, opts), Outcome::Unsat);
}

TEST(Solver, BranchesFalseFirstEvenWithPositiveMajority) {
  // Regression test for the removal of the dead `polarity_` accumulator:
  // branching must stay FALSE-first regardless of literal sign balance.
  // The CSC encoding relies on this (state-signal value Zero keeps
  // excitation regions minimal), and a Jeroslow-Wang phase hint measurably
  // worsened downstream synthesis results on the Table 1 suite.  Here
  // v0..v2 appear only positively; FALSE-first decides two of them false
  // and propagation forces exactly one true (a TRUE-first hint would have
  // set all three true).
  Cnf cnf;
  const Var v0 = cnf.new_var();
  const Var v1 = cnf.new_var();
  const Var v2 = cnf.new_var();
  cnf.add_clause({pos(v0), pos(v1), pos(v2)});
  Model m;
  SolveStats stats;
  ASSERT_EQ(Solver().solve(cnf, &m, &stats), Outcome::Sat);
  EXPECT_EQ(static_cast<int>(m[v0]) + static_cast<int>(m[v1]) + static_cast<int>(m[v2]), 1);
  EXPECT_EQ(stats.backtracks, 0);
}

TEST(Solver, HeapMatchesLinearScanReference) {
  // The lazy variable-order heap must select, at every decision, the exact
  // variable the original O(#vars) linear scan selected (DESIGN.md "Hot
  // paths": both maximize the same strict total order — higher
  // score+activity first, lower var id on ties).  Identical decision
  // sequences imply identical search trees, which is what keeps the Table 1
  // quality columns reproducible.  Mixed SAT/UNSAT instances at density
  // 4.3 exercise conflicts, activity bumps, restarts and random decisions.
  mps::util::Rng rng(2024);
  for (int i = 0; i < 25; ++i) {
    const int vars = 20 + static_cast<int>(rng.below(21));
    const Cnf cnf = random_3sat(rng, vars, (vars * 43) / 10);
    std::vector<Lit> heap_log, linear_log;
    SolveOptions heap_opts, linear_opts;
    heap_opts.seed = linear_opts.seed = 7 + i;
    heap_opts.decision_log = &heap_log;
    linear_opts.decision_log = &linear_log;
    linear_opts.reference_linear_branching = true;
    Model heap_model, linear_model;
    SolveStats heap_stats, linear_stats;
    const Outcome heap_out = Solver().solve(cnf, &heap_model, &heap_stats, heap_opts);
    const Outcome linear_out = Solver().solve(cnf, &linear_model, &linear_stats, linear_opts);
    ASSERT_EQ(heap_out, linear_out) << "instance " << i;
    ASSERT_EQ(heap_log.size(), linear_log.size()) << "instance " << i;
    for (std::size_t d = 0; d < heap_log.size(); ++d) {
      ASSERT_EQ(heap_log[d].x, linear_log[d].x) << "instance " << i << " decision " << d;
    }
    EXPECT_EQ(heap_model, linear_model) << "instance " << i;
    EXPECT_EQ(heap_stats.decisions, linear_stats.decisions) << "instance " << i;
    EXPECT_EQ(heap_stats.backtracks, linear_stats.backtracks) << "instance " << i;
    EXPECT_EQ(heap_stats.propagations, linear_stats.propagations) << "instance " << i;
  }
}

TEST(Solver, DeterministicWithFixedSeed) {
  mps::util::Rng rng(7);
  const Cnf cnf = random_3sat(rng, 40, 120);
  SolveStats s1, s2;
  Model m1, m2;
  SolveOptions opts;
  opts.seed = 42;
  Solver().solve(cnf, &m1, &s1, opts);
  Solver().solve(cnf, &m2, &s2, opts);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(s1.decisions, s2.decisions);
}

// Regression (stats bugfix): SolveStats::conflicts used to be an accessor
// hard-aliasing `backtracks`.  For the DPLL engine the two counts genuinely
// coincide (one chronological backtrack per conflict) — that invariant is
// pinned here, on instances with plenty of conflicts.
TEST(Solver, DpllConflictsEqualBacktracks) {
  SolveStats stats;
  ASSERT_EQ(Solver().solve(pigeonhole(5, 4), nullptr, &stats), Outcome::Unsat);
  EXPECT_GT(stats.conflicts, 0);
  EXPECT_EQ(stats.conflicts, stats.backtracks);
  EXPECT_EQ(stats.learned, 0);  // DPLL never learns clauses
  mps::util::Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    const Cnf cnf = random_3sat(rng, 25, 107);  // density 4.3: mixed outcomes
    SolveStats s;
    Solver().solve(cnf, nullptr, &s);
    EXPECT_EQ(s.conflicts, s.backtracks) << "instance " << i;
  }
}

// Regression (overflow bugfix): the DPLL geometric restart escalation used
// a bare `restart_budget *= 2`, which is UB once the budget passes
// int64 max / 2 on a long-running search.  The shared helper saturates.
TEST(Engine, SaturatingDoubleSaturatesAtInt64Max) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(saturating_double(3), 6);
  EXPECT_EQ(saturating_double(0), 0);
  EXPECT_EQ(saturating_double(kMax / 2), kMax - 1);  // largest non-saturating input
  EXPECT_EQ(saturating_double(kMax / 2 + 1), kMax);
  EXPECT_EQ(saturating_double(kMax), kMax);
}

TEST(Engine, DpllSearchSurvivesCappedRestartBudget) {
  // A restart budget near int64 max must not wrap negative (which would
  // make every conflict trigger a restart — or worse, UB).  The search
  // doubles the budget on its first restart; with the interval at
  // int64max/2 the doubled value saturates instead of overflowing.
  SolveOptions opts;
  opts.restart_interval = std::numeric_limits<std::int64_t>::max() / 2;
  EXPECT_EQ(Solver().solve(pigeonhole(4, 3), nullptr, nullptr, opts), Outcome::Unsat);
}

SolveOptions cdcl_opts() {
  SolveOptions opts;
  opts.engine = Engine::Cdcl;
  return opts;
}

TEST(Cdcl, TrivialOutcomes) {
  {
    Cnf cnf;
    const Var x = cnf.new_var();
    cnf.add_clause({pos(x)});
    Model m;
    EXPECT_EQ(Solver().solve(cnf, &m, nullptr, cdcl_opts()), Outcome::Sat);
    EXPECT_TRUE(m[x]);
    cnf.add_clause({neg(x)});
    EXPECT_EQ(Solver().solve(cnf, nullptr, nullptr, cdcl_opts()), Outcome::Unsat);
  }
  {
    Cnf cnf;
    cnf.new_var();
    cnf.add_clause(std::vector<Lit>{});
    EXPECT_EQ(Solver().solve(cnf, nullptr, nullptr, cdcl_opts()), Outcome::Unsat);
  }
  {
    Cnf cnf;
    cnf.new_vars(3);
    Model m;
    EXPECT_EQ(Solver().solve(cnf, &m, nullptr, cdcl_opts()), Outcome::Sat);
    EXPECT_EQ(m.size(), 3u);
  }
}

TEST(Cdcl, PigeonholeOutcomesAndLearning) {
  SolveStats stats;
  EXPECT_EQ(Solver().solve(pigeonhole(5, 4), nullptr, &stats, cdcl_opts()), Outcome::Unsat);
  EXPECT_GT(stats.conflicts, 0);
  EXPECT_GT(stats.learned, 0);
  // Non-chronological backjumping: a level-0 conflict ends the search with
  // no backjump, so the alias the old accessor assumed does not hold here.
  EXPECT_LT(stats.backtracks, stats.conflicts);
  Model m;
  const Cnf sat_cnf = pigeonhole(4, 4);
  ASSERT_EQ(Solver().solve(sat_cnf, &m, nullptr, cdcl_opts()), Outcome::Sat);
  EXPECT_TRUE(sat_cnf.satisfied_by(m));
}

TEST(Cdcl, AgreesWithBruteForceOnSmallFormulas) {
  mps::util::Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    const int vars = 6;
    const Cnf cnf = random_3sat(rng, vars, 24);
    bool brute_sat = false;
    for (int x = 0; x < (1 << vars) && !brute_sat; ++x) {
      Model m(vars);
      for (int v = 0; v < vars; ++v) m[v] = (x >> v) & 1;
      brute_sat = cnf.satisfied_by(m);
    }
    Model m;
    const Outcome out = Solver().solve(cnf, &m, nullptr, cdcl_opts());
    EXPECT_EQ(out, brute_sat ? Outcome::Sat : Outcome::Unsat) << "instance " << i;
  }
}

TEST(Cdcl, ConflictLimitReported) {
  SolveOptions opts = cdcl_opts();
  opts.max_backtracks = 1;  // caps *conflicts* for this engine
  SolveStats stats;
  EXPECT_EQ(Solver().solve(pigeonhole(6, 5), nullptr, &stats, opts), Outcome::Limit);
  EXPECT_LE(stats.conflicts, 2);
}

TEST(Cdcl, TimeLimitHonoredWithoutConflicts) {
  SolveOptions opts = cdcl_opts();
  opts.time_limit_s = 1e-3;
  SolveStats stats;
  mps::util::Timer timer;
  const Outcome out = Solver().solve(propagation_heavy(30000), nullptr, &stats, opts);
  EXPECT_EQ(out, Outcome::Limit);
  EXPECT_EQ(stats.conflicts, 0);  // the conflict-path check cannot have fired
  EXPECT_LT(timer.seconds(), 5.0);
}

TEST(Cdcl, DeadlineStopsSearch) {
  SolveOptions opts = cdcl_opts();
  opts.deadline = mps::util::Deadline::at(std::chrono::steady_clock::now() -
                                          std::chrono::seconds(1));
  EXPECT_EQ(Solver().solve(pigeonhole(8, 7), nullptr, nullptr, opts), Outcome::Limit);
  opts.deadline =
      mps::util::Deadline::at(std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_EQ(Solver().solve(pigeonhole(4, 3), nullptr, nullptr, opts), Outcome::Unsat);
}

TEST(Cdcl, AggressiveRestartsKeepCompleteness) {
  // Luby restarts with a tiny base unit: the search restarts constantly but
  // keeps learned clauses, so it still terminates with the right answer.
  SolveOptions opts = cdcl_opts();
  opts.restart_interval = 2;
  SolveStats stats;
  EXPECT_EQ(Solver().solve(pigeonhole(5, 4), nullptr, &stats, opts), Outcome::Unsat);
  EXPECT_GT(stats.restarts, 0);
  Model m;
  const Cnf sat_cnf = pigeonhole(5, 5);
  ASSERT_EQ(Solver().solve(sat_cnf, &m, nullptr, opts), Outcome::Sat);
  EXPECT_TRUE(sat_cnf.satisfied_by(m));
}

TEST(Cdcl, RestartsDisabledStillComplete) {
  SolveOptions opts = cdcl_opts();
  opts.restart_interval = 0;
  SolveStats stats;
  EXPECT_EQ(Solver().solve(pigeonhole(5, 4), nullptr, &stats, opts), Outcome::Unsat);
  EXPECT_EQ(stats.restarts, 0);
}

TEST(Cdcl, ClauseDatabaseReductionUnderSustainedConflicts) {
  // PHP(8,7) is resolution-hard enough to push the stored learned-clause
  // count past the first reduction budget (max(2000, #clauses/2) = 2000),
  // exercising the LBD-based reduce + arena compaction path on a formula
  // whose answer is known.  Learned-total > 2000 implies at least one
  // reduction fired (units aside, every learned clause is stored).
  SolveStats stats;
  ASSERT_EQ(Solver().solve(pigeonhole(8, 7), nullptr, &stats, cdcl_opts()), Outcome::Unsat);
  EXPECT_GT(stats.learned, 2000);
}

TEST(Cdcl, SatModelsCarryNoGratuitousTrueAssignments) {
  // Phase saving can leave a stale saved-TRUE polarity on a variable no
  // clause needs: here deciding a=F propagates b=T, z=T and deciding p=F
  // propagates q=T into a conflict whose 1UIP unit (p) backjumps to level
  // 0, throwing q's TRUE phase into the saved-polarity store.  When q is
  // re-decided after the restart it comes back TRUE — a gratuitous
  // assignment that downstream consumers (the Lavagno insertion decode
  // drops constant columns) turn into gratuitous inserted state signals.
  // The post-Sat shrink pass must return it to FALSE.
  Cnf cnf;
  const Var a = cnf.new_var(), b = cnf.new_var(), z = cnf.new_var();
  const Var p = cnf.new_var(), q = cnf.new_var();
  cnf.add_clause({pos(a), pos(b)});
  cnf.add_clause({neg(b), pos(z)});
  cnf.add_clause({pos(p), pos(q)});
  cnf.add_clause({pos(p), neg(q)});
  SolveOptions opts = cdcl_opts();
  opts.restart_interval = 1;  // restart on the first conflict
  Model m;
  ASSERT_EQ(Solver().solve(cnf, &m, nullptr, opts), Outcome::Sat);
  EXPECT_TRUE(cnf.satisfied_by(m));
  EXPECT_TRUE(m[p]) << "p is implied at level 0";
  EXPECT_FALSE(m[q]) << "no clause needs q once p holds";
  int trues = 0;
  for (const bool v : m) trues += v ? 1 : 0;
  EXPECT_LE(trues, 3) << "model should be mostly-false like the DPLL reference";
}

TEST(Cdcl, DeterministicAcrossRuns) {
  mps::util::Rng rng(7);
  const Cnf cnf = random_3sat(rng, 40, 170);
  SolveStats s1, s2;
  Model m1, m2;
  const Outcome o1 = Solver().solve(cnf, &m1, &s1, cdcl_opts());
  const Outcome o2 = Solver().solve(cnf, &m2, &s2, cdcl_opts());
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(s1.decisions, s2.decisions);
  EXPECT_EQ(s1.conflicts, s2.conflicts);
  EXPECT_EQ(s1.learned, s2.learned);
}

}  // namespace
