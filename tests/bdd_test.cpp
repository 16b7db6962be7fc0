#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "bdd/csc_bdd.hpp"
#include "bdd/symbolic.hpp"
#include "sat/solver.hpp"
#include "logic/minimize.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"

namespace {

using namespace mps::bdd;
using mps::util::BitVec;

BitVec code(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) v.set(i, bits[i] == '1');
  return v;
}

TEST(Bdd, Terminals) {
  Manager mgr(3);
  EXPECT_EQ(mgr.bdd_false(), kFalse);
  EXPECT_EQ(mgr.bdd_true(), kTrue);
  EXPECT_EQ(mgr.bdd_not(kTrue), kFalse);
  EXPECT_EQ(mgr.bdd_not(kFalse), kTrue);
}

TEST(Bdd, VariablesAreCanonical) {
  Manager mgr(3);
  EXPECT_EQ(mgr.var(0), mgr.var(0));  // hash-consed
  EXPECT_NE(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.bdd_not(mgr.var(0)), mgr.nvar(0));
}

TEST(Bdd, BooleanAlgebraLaws) {
  Manager mgr(4);
  const NodeId a = mgr.var(0);
  const NodeId b = mgr.var(1);
  const NodeId c = mgr.var(2);
  // Canonicity makes law checking equality checking.
  EXPECT_EQ(mgr.bdd_and(a, b), mgr.bdd_and(b, a));
  EXPECT_EQ(mgr.bdd_or(a, mgr.bdd_or(b, c)), mgr.bdd_or(mgr.bdd_or(a, b), c));
  EXPECT_EQ(mgr.bdd_and(a, mgr.bdd_or(b, c)),
            mgr.bdd_or(mgr.bdd_and(a, b), mgr.bdd_and(a, c)));
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_and(a, b)),
            mgr.bdd_or(mgr.bdd_not(a), mgr.bdd_not(b)));  // De Morgan
  EXPECT_EQ(mgr.bdd_and(a, mgr.bdd_not(a)), kFalse);
  EXPECT_EQ(mgr.bdd_or(a, mgr.bdd_not(a)), kTrue);
  EXPECT_EQ(mgr.bdd_xor(a, a), kFalse);
  EXPECT_EQ(mgr.bdd_xor(a, kFalse), a);
  EXPECT_EQ(mgr.bdd_implies(a, a), kTrue);
}

TEST(Bdd, EvalAgainstTruthTable) {
  Manager mgr(3);
  const NodeId f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)), mgr.nvar(2));
  for (int x = 0; x < 8; ++x) {
    BitVec assignment(3);
    for (int v = 0; v < 3; ++v) assignment.set(v, (x >> v) & 1);
    const bool expected =
        (assignment.test(0) && assignment.test(1)) || !assignment.test(2);
    EXPECT_EQ(mgr.eval(f, assignment), expected) << x;
  }
}

TEST(Bdd, RestrictAndQuantify) {
  Manager mgr(3);
  const NodeId f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.restrict(f, 0, true), mgr.var(1));
  EXPECT_EQ(mgr.restrict(f, 0, false), kFalse);
  EXPECT_EQ(mgr.exists(f, 0), mgr.var(1));
  EXPECT_EQ(mgr.forall(f, 0), kFalse);
  const NodeId g = mgr.bdd_or(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.forall(g, 0), mgr.var(1));
}

TEST(Bdd, SatCount) {
  Manager mgr(4);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kTrue), 16.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kFalse), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0)), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_and(mgr.var(0), mgr.var(3))), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_xor(mgr.var(1), mgr.var(2))), 8.0);
}

TEST(Bdd, PickModel) {
  Manager mgr(3);
  const NodeId f = mgr.bdd_and(mgr.var(0), mgr.nvar(2));
  BitVec model;
  ASSERT_TRUE(mgr.pick_model(f, &model));
  EXPECT_TRUE(mgr.eval(f, model));
  EXPECT_FALSE(mgr.pick_model(kFalse, &model));
}

TEST(Bdd, FromCoverMatchesSemantics) {
  Manager mgr(3);
  mps::logic::Cover cover(3);
  cover.add(mps::logic::Cube::from_string("1-0"));
  cover.add(mps::logic::Cube::from_string("01-"));
  const NodeId f = mgr.from_cover(cover);
  for (int x = 0; x < 8; ++x) {
    BitVec assignment(3);
    for (int v = 0; v < 3; ++v) assignment.set(v, (x >> v) & 1);
    EXPECT_EQ(mgr.eval(f, assignment), cover.covers_code(assignment.words())) << x;
  }
}

TEST(Bdd, FromMintermsMatchesList) {
  Manager mgr(3);
  const std::vector<BitVec> minterms = {code("101"), code("010"), code("111")};
  const NodeId f = mgr.from_minterms(minterms);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), 3.0);
  for (const auto& m : minterms) EXPECT_TRUE(mgr.eval(f, m));
  EXPECT_FALSE(mgr.eval(f, code("000")));
}

TEST(Bdd, SharingKeepsNodeCountSmall) {
  Manager mgr(10);
  // x0 xor x1 xor ... xor x9 — linear-size BDD thanks to sharing.
  NodeId f = kFalse;
  for (std::uint32_t v = 0; v < 10; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  // No GC: intermediates stay in the unique table, but growth is linear.
  EXPECT_LT(mgr.num_nodes(), 128u);
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), 512.0);
}

/// A pseudo-random function over `nv` variables, distinct per seed.
NodeId random_function(Manager& mgr, std::uint32_t nv, std::uint32_t seed) {
  mps::util::Rng rng(seed);
  std::vector<BitVec> minterms;
  for (int i = 0; i < 12; ++i) {
    BitVec m(nv);
    for (std::uint32_t v = 0; v < nv; ++v) m.set(v, rng.chance(0.5));
    minterms.push_back(m);
  }
  return mgr.from_minterms(minterms);
}

TEST(BddQuantify, CubeMatchesIteratedExists) {
  Manager mgr(6);
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const NodeId f = random_function(mgr, 6, seed);
    const NodeId via_cube = mgr.exists_cube(f, mgr.cube({1, 3, 4}));
    NodeId iterated = f;
    for (const std::uint32_t v : {1u, 3u, 4u}) iterated = mgr.exists(iterated, v);
    EXPECT_EQ(via_cube, iterated) << "seed " << seed;
  }
}

TEST(BddQuantify, ExistsDistributesOverOr) {
  Manager mgr(6);
  const NodeId f = random_function(mgr, 6, 1);
  const NodeId g = random_function(mgr, 6, 2);
  const NodeId c = mgr.cube({0, 2, 5});
  EXPECT_EQ(mgr.exists_cube(mgr.bdd_or(f, g), c),
            mgr.bdd_or(mgr.exists_cube(f, c), mgr.exists_cube(g, c)));
}

TEST(BddQuantify, AndExistsMatchesConjoinThenQuantify) {
  Manager mgr(8);
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const NodeId f = random_function(mgr, 8, 3 * seed);
    const NodeId g = random_function(mgr, 8, 3 * seed + 1);
    const NodeId c = mgr.cube({0, 1, 4, 6});
    EXPECT_EQ(mgr.and_exists(f, g, c), mgr.exists_cube(mgr.bdd_and(f, g), c))
        << "seed " << seed;
    EXPECT_EQ(mgr.and_exists(f, g, c), mgr.and_exists(g, f, c));  // commutes
    EXPECT_EQ(mgr.and_exists(f, g, kTrue), mgr.bdd_and(f, g));    // empty cube
  }
}

TEST(BddQuantify, RenameShiftDown) {
  Manager mgr(8);
  // f over next variables {1, 3, 7} only; renaming maps it onto {0, 2, 6}.
  const NodeId f =
      mgr.bdd_or(mgr.bdd_and(mgr.var(1), mgr.nvar(3)), mgr.bdd_and(mgr.var(3), mgr.var(7)));
  const NodeId expected =
      mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.nvar(2)), mgr.bdd_and(mgr.var(2), mgr.var(6)));
  EXPECT_EQ(mgr.rename_shift_down(f), expected);
  EXPECT_EQ(mgr.rename_shift_down(kTrue), kTrue);
  // Functions already over even variables pass through unchanged.
  EXPECT_EQ(mgr.rename_shift_down(expected), expected);
}

TEST(BddRestrict, MemoizedMatchesReference) {
  Manager mgr(8);
  for (std::uint32_t seed = 0; seed < 10; ++seed) {
    const NodeId f = random_function(mgr, 8, seed);
    for (std::uint32_t v = 0; v < 8; ++v) {
      EXPECT_EQ(mgr.restrict(f, v, true), mgr.restrict_nomemo(f, v, true));
      EXPECT_EQ(mgr.restrict(f, v, false), mgr.restrict_nomemo(f, v, false));
    }
  }
}

TEST(BddGc, KeepsLiveRootsAndCollectsGarbage) {
  Manager mgr(10);
  NodeId keep = random_function(mgr, 10, 7);
  // Record the full truth table so the post-GC (re-numbered) root can be
  // checked semantically.
  std::vector<bool> truth(1024);
  for (std::uint32_t x = 0; x < 1024; ++x) {
    BitVec a(10);
    for (std::uint32_t v = 0; v < 10; ++v) a.set(v, (x >> v) & 1);
    truth[x] = mgr.eval(keep, a);
  }
  for (std::uint32_t seed = 100; seed < 120; ++seed) random_function(mgr, 10, seed);
  const std::size_t before = mgr.num_nodes();
  std::vector<NodeId*> roots{&keep};
  const std::size_t collected = mgr.gc(roots);
  EXPECT_GT(collected, 0u);
  EXPECT_EQ(mgr.num_nodes(), before - collected);
  EXPECT_EQ(mgr.stats().gc_runs, 1u);
  for (std::uint32_t x = 0; x < 1024; ++x) {
    BitVec a(10);
    for (std::uint32_t v = 0; v < 10; ++v) a.set(v, (x >> v) & 1);
    EXPECT_EQ(mgr.eval(keep, a), truth[x]) << x;
  }
  // The manager keeps working after compaction: fresh ops, fresh caches.
  EXPECT_EQ(mgr.bdd_and(keep, mgr.bdd_not(keep)), kFalse);
}

TEST(BddBudget, NodeLimitThrows) {
  Manager mgr(64);
  mgr.set_max_nodes(24);
  EXPECT_THROW(
      {
        NodeId f = kFalse;
        for (std::uint32_t v = 0; v < 64; ++v) f = mgr.bdd_xor(f, mgr.var(v));
      },
      mps::util::LimitError);
}

TEST(BddBudget, OpLimitThrows) {
  Manager mgr(32);
  NodeId f = kFalse;
  for (std::uint32_t v = 0; v < 32; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  mgr.set_max_ops(8);
  EXPECT_THROW(
      {
        // Fresh structure so the ite cache cannot answer from memory.
        const NodeId g = random_function(mgr, 32, 9);
        mgr.bdd_and(f, g);
      },
      mps::util::LimitError);
}

TEST(SymbolicStg, ReachableCodesMatchExplicit) {
  const auto stg = mps::stg::Builder("hs")
                       .inputs({"r"})
                       .outputs({"a"})
                       .path("r+", "a+", "r-", "a-")
                       .arc("a-", "r+")
                       .token("a-", "r+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  SymbolicStg sym(stg);
  EXPECT_DOUBLE_EQ(sym.num_states(), static_cast<double>(g.num_states()));
  for (mps::sg::StateId s = 0; s < g.num_states(); ++s) {
    EXPECT_TRUE(sym.code_reachable(g.code(s)));
  }
}

TEST(SymbolicStg, DetectsViolationAndSatisfaction) {
  const auto bad = mps::stg::Builder("toggle")
                       .outputs({"x", "y"})
                       .path("x+", "x-", "y+", "y-")
                       .arc("y-", "x+")
                       .token("y-", "x+")
                       .build();
  SymbolicStg sym_bad(bad);
  EXPECT_FALSE(sym_bad.check_csc().holds);
  // Code 11 never occurs: x and y pulse one after the other.
  EXPECT_FALSE(sym_bad.code_reachable(code("11")));

  const auto good = mps::stg::Builder("hs")
                        .inputs({"r"})
                        .outputs({"a"})
                        .path("r+", "a+", "r-", "a-")
                        .arc("a-", "r+")
                        .token("a-", "r+")
                        .build();
  SymbolicStg sym_good(good);
  const CscVerdict verdict = sym_good.check_csc();
  EXPECT_TRUE(verdict.holds);
  EXPECT_TRUE(verdict.conflicts.empty());
}

TEST(CscBdd, CoverMatchesSpecExactly) {
  mps::logic::SopSpec spec;
  spec.num_vars = 3;
  spec.on = {code("110"), code("111")};
  spec.off = {code("000"), code("001")};
  Manager mgr(3);
  mps::logic::Cover good(3);
  good.add(mps::logic::Cube::from_string("11-"));
  EXPECT_TRUE(cover_matches_spec(mgr, spec, good));

  mps::logic::Cover overreach(3);
  overreach.add(mps::logic::Cube::from_string("---"));  // hits the OFF set
  EXPECT_FALSE(cover_matches_spec(mgr, spec, overreach));

  mps::logic::Cover undershoot(3);
  undershoot.add(mps::logic::Cube::from_string("111"));  // misses ON 110
  EXPECT_FALSE(cover_matches_spec(mgr, spec, undershoot));

  // Dipping into don't-care space is allowed.
  mps::logic::Cover dc(3);
  dc.add(mps::logic::Cube::from_string("1--"));  // covers DC 100, 101
  EXPECT_TRUE(cover_matches_spec(mgr, spec, dc));
}

TEST(SolveCnfBdd, AgreesWithDpll) {
  mps::util::Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    mps::sat::Cnf cnf;
    cnf.new_vars(8);
    for (int c = 0; c < 24; ++c) {
      std::vector<mps::sat::Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(mps::sat::Lit::make(
            static_cast<mps::sat::Var>(rng.below(8)), rng.chance(0.5)));
      }
      cnf.add_clause(clause);
    }
    const auto bdd_model = solve_cnf_bdd(cnf);
    const auto dpll = mps::sat::Solver().solve(cnf);
    EXPECT_EQ(bdd_model.has_value(), dpll == mps::sat::Outcome::Sat) << "instance " << i;
    if (bdd_model.has_value()) EXPECT_TRUE(cnf.satisfied_by(*bdd_model));
  }
}

TEST(SolveCnfBdd, NodeCapThrows) {
  // A parity chain forces exponential growth under a hostile clause order;
  // with a tiny cap the limit error must fire (or the instance solves —
  // either way, never a wrong answer).
  mps::util::Rng rng(5);
  mps::sat::Cnf cnf;
  cnf.new_vars(24);
  for (int c = 0; c < 60; ++c) {
    std::vector<mps::sat::Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(mps::sat::Lit::make(
          static_cast<mps::sat::Var>(rng.below(24)), rng.chance(0.5)));
    }
    cnf.add_clause(clause);
  }
  try {
    const auto model = solve_cnf_bdd(cnf, /*max_nodes=*/64);
    if (model.has_value()) EXPECT_TRUE(cnf.satisfied_by(*model));
  } catch (const mps::util::LimitError&) {
    SUCCEED();
  }
}

}  // namespace
