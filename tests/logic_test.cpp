#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "benchmarks/benchmarks.hpp"
#include "core/synthesis.hpp"
#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "logic/extract.hpp"
#include "logic/minimize.hpp"
#include "logic/pla.hpp"
#include "netlist/build.hpp"
#include "sg/state_graph.hpp"
#include "stg/builder.hpp"
#include "util/common.hpp"

namespace {

using namespace mps::logic;
using mps::util::BitVec;

BitVec code(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) v.set(i, bits[i] == '1');
  return v;
}

TEST(Cube, MintermAndContainment) {
  const Cube m = Cube::minterm(code("101"));
  EXPECT_EQ(m.literal_count(), 3u);
  EXPECT_TRUE(m.contains_code(code("101").words()));
  EXPECT_FALSE(m.contains_code(code("100").words()));
  const Cube u(3);  // universal
  EXPECT_TRUE(u.contains(m));
  EXPECT_FALSE(m.contains(u));
  EXPECT_TRUE(m.contains(m));

  // 70 variables: the care and value rows take two words each.
  std::string bits(70, '0');
  bits[3] = bits[63] = bits[64] = bits[69] = '1';
  const Cube wide = Cube::minterm(code(bits));
  EXPECT_EQ(wide.literal_count(), 70u);
  EXPECT_EQ(wide.to_string(), bits);
  EXPECT_TRUE(wide.contains_code(code(bits).words()));
  for (const std::size_t v : {0, 63, 64, 69}) {
    std::string flipped = bits;
    flipped[v] = flipped[v] == '1' ? '0' : '1';
    EXPECT_FALSE(wide.contains_code(code(flipped).words())) << v;
    // The supercube of two minterms frees exactly the variable they differ on.
    const Cube merged = wide.supercube(Cube::minterm(code(flipped)));
    EXPECT_EQ(merged.literal_count(), 69u) << v;
    EXPECT_FALSE(merged.has_literal(v)) << v;
    EXPECT_TRUE(merged.contains(wide)) << v;
    EXPECT_FALSE(wide.contains(merged)) << v;
    EXPECT_TRUE(merged.contains_code(code(flipped).words())) << v;
  }
  EXPECT_TRUE(Cube(70).contains(wide));
  EXPECT_EQ(Cube(70).literal_count(), 0u);
}

TEST(Cube, FromStringAndToString) {
  const Cube c = Cube::from_string("1-0");
  EXPECT_EQ(c.to_string(), "1-0");
  EXPECT_EQ(c.literal_count(), 2u);
  EXPECT_EQ(c.literal(0), std::optional<bool>(true));
  EXPECT_EQ(c.literal(1), std::nullopt);
  EXPECT_EQ(c.literal(2), std::optional<bool>(false));
  EXPECT_THROW(Cube::from_string("1x0"), mps::util::ParseError);
}

TEST(Cube, SetAndFreeLiterals) {
  Cube c(3);
  c.set_literal(1, true);
  EXPECT_TRUE(c.has_literal(1));
  EXPECT_TRUE(c.contains_code(code("011").words()));
  EXPECT_FALSE(c.contains_code(code("001").words()));
  c.free_var(1);
  EXPECT_FALSE(c.has_literal(1));
  EXPECT_EQ(c.literal_count(), 0u);

  // Across the word boundary of a 70-variable cube.
  Cube w(70);
  w.set_literal(63, true);
  w.set_literal(64, false);
  w.set_literal(69, true);
  EXPECT_EQ(w.literal_count(), 3u);
  EXPECT_EQ(w.literal(63), std::optional<bool>(true));
  EXPECT_EQ(w.literal(64), std::optional<bool>(false));
  std::string bits(70, '0');
  bits[63] = bits[69] = '1';
  EXPECT_TRUE(w.contains_code(code(bits).words()));
  bits[64] = '1';
  EXPECT_FALSE(w.contains_code(code(bits).words()));
  w.set_literal(64, true);  // overwrite the literal's polarity
  EXPECT_TRUE(w.contains_code(code(bits).words()));
  w.free_var(64);
  EXPECT_FALSE(w.has_literal(64));
  EXPECT_EQ(w.literal_count(), 2u);
  bits[64] = '0';
  EXPECT_TRUE(w.contains_code(code(bits).words()));
  // Freeing a literal leaves the same words as never setting it.
  Cube expected(70);
  expected.set_literal(63, true);
  expected.set_literal(69, true);
  EXPECT_EQ(w, expected);
  EXPECT_EQ(w.to_string(), std::string(63, '-') + "1-----1");
}

TEST(Cube, Supercube) {
  const Cube a = Cube::from_string("110");
  const Cube b = Cube::from_string("100");
  EXPECT_EQ(a.supercube(b).to_string(), "1-0");
}

TEST(Cover, CoversAndLiteralCount) {
  Cover f(3);
  f.add(Cube::from_string("1--"));
  f.add(Cube::from_string("-11"));
  EXPECT_TRUE(f.covers_code(code("100").words()));
  EXPECT_TRUE(f.covers_code(code("011").words()));
  EXPECT_FALSE(f.covers_code(code("001").words()));
  EXPECT_EQ(f.literal_count(), 3u);
}

TEST(Cover, SingleCubeContainmentRemoval) {
  Cover f(3);
  f.add(Cube::from_string("1--"));
  f.add(Cube::from_string("11-"));  // contained
  f.add(Cube::from_string("-00"));
  f.remove_single_cube_containment();
  EXPECT_EQ(f.size(), 2u);
}

TEST(Cover, Expressions) {
  Cover f(2);
  f.add(Cube::from_string("10"));
  f.add(Cube::from_string("-1"));
  EXPECT_EQ(f.to_expression({"a", "b"}), "a b' + b");
  EXPECT_EQ(Cover(2).to_expression({"a", "b"}), "0");
}

// --- minimization -------------------------------------------------------

SopSpec spec_from(std::size_t vars, const std::vector<std::string>& on,
                  const std::vector<std::string>& off) {
  SopSpec s;
  s.num_vars = vars;
  for (const auto& c : on) s.on.push_back(code(c));
  for (const auto& c : off) s.off.push_back(code(c));
  return s;
}

TEST(Minimize, SingleMintermStaysMinterm) {
  const auto spec = spec_from(2, {"11"}, {"00", "01", "10"});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.literal_count(), 2u);
  EXPECT_TRUE(cover_is_valid(spec, f));
}

TEST(Minimize, FullOnSetBecomesTautology) {
  const auto spec = spec_from(2, {"00", "01", "10", "11"}, {});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.literal_count(), 0u);
}

TEST(Minimize, DontCaresAreUsed) {
  // ON = {11}, OFF = {00}; 01 and 10 are don't cares: a single literal
  // suffices.
  const auto spec = spec_from(2, {"11"}, {"00"});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.literal_count(), 1u);
  EXPECT_TRUE(cover_is_valid(spec, f));
}

TEST(Minimize, XorNeedsTwoCubes) {
  const auto spec = spec_from(2, {"01", "10"}, {"00", "11"});
  const Cover f = minimize(spec);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.literal_count(), 4u);
  EXPECT_TRUE(cover_is_valid(spec, f));
  EXPECT_TRUE(cover_is_irredundant(spec, f));
  for (const Cube& c : f.cubes()) EXPECT_TRUE(cube_is_prime(spec, c));
}

TEST(Minimize, ClassicTextbookFunction) {
  // f = Σm(0,1,2,5,6,7) over 3 vars: minimal SOP has 3 cubes / 6 literals
  // (one of two symmetric solutions).
  const auto spec =
      spec_from(3, {"000", "100", "010", "101", "011", "111"}, {"110", "001"});
  const Cover f = minimize(spec);
  EXPECT_TRUE(cover_is_valid(spec, f));
  EXPECT_LE(f.literal_count(), 6u);
  EXPECT_GE(f.literal_count(), 6u);
}

TEST(Minimize, HeuristicMatchesExactOnSmallRandomFunctions) {
  mps::util::Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    SopSpec spec;
    spec.num_vars = 4;
    for (int x = 0; x < 16; ++x) {
      BitVec c(4);
      for (int v = 0; v < 4; ++v) c.set(v, (x >> v) & 1);
      const double dice = rng.uniform();
      if (dice < 0.4) {
        spec.on.push_back(c);
      } else if (dice < 0.8) {
        spec.off.push_back(c);
      }  // else don't care
    }
    if (spec.on.empty()) continue;
    const Cover heur = heuristic_minimize(spec);
    const auto exact = exact_minimize(spec);
    ASSERT_TRUE(exact.has_value());
    EXPECT_TRUE(cover_is_valid(spec, heur));
    EXPECT_TRUE(cover_is_valid(spec, *exact));
    // Heuristic is within 2x of exact on these tiny functions.
    EXPECT_LE(heur.literal_count(), 2 * std::max<std::size_t>(1, exact->literal_count()));
    EXPECT_LE(exact->literal_count(), heur.literal_count());
  }
}

TEST(Minimize, PrimeAndIrredundantProperties) {
  mps::util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    SopSpec spec;
    spec.num_vars = 5;
    for (int x = 0; x < 32; ++x) {
      BitVec c(5);
      for (int v = 0; v < 5; ++v) c.set(v, (x >> v) & 1);
      if (rng.chance(0.45)) {
        spec.on.push_back(c);
      } else if (rng.chance(0.8)) {
        spec.off.push_back(c);
      }
    }
    if (spec.on.empty()) continue;
    const Cover f = heuristic_minimize(spec);
    EXPECT_TRUE(cover_is_valid(spec, f));
    EXPECT_TRUE(cover_is_irredundant(spec, f)) << "trial " << trial;
    for (const Cube& c : f.cubes()) {
      EXPECT_TRUE(cube_is_prime(spec, c)) << "trial " << trial;
    }
  }
}

TEST(Minimize, EmptyOnSetGivesEmptyCover) {
  const auto spec = spec_from(2, {}, {"00"});
  EXPECT_TRUE(minimize(spec).empty());
}

/// `points` distinct random codes over `vars` variables, each ON with
/// probability `on_share` and OFF otherwise.
SopSpec sparse_spec(mps::util::Rng& rng, std::size_t vars, std::size_t points, double on_share) {
  SopSpec spec;
  spec.num_vars = vars;
  std::unordered_set<std::string> seen;
  while (seen.size() < points) {
    BitVec c(vars);
    for (std::size_t v = 0; v < vars; ++v) c.set(v, rng.chance(0.5));
    if (!seen.insert(c.to_string()).second) continue;
    (rng.chance(on_share) ? spec.on : spec.off).push_back(c);
  }
  return spec;
}

TEST(Minimize, DefaultIsHeuristicOnly) {
  EXPECT_FALSE(MinimizeOptions{}.try_exact);
  MinimizeOptions with_exact;
  with_exact.try_exact = true;
  mps::util::Rng rng(11);
  std::size_t exact_differs = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const SopSpec spec = sparse_spec(rng, 5, 24, 0.45);
    if (spec.on.empty()) continue;
    const Cover heur = heuristic_minimize(spec);
    EXPECT_EQ(minimize(spec).to_string(), heur.to_string()) << "trial " << trial;
    if (minimize(spec, with_exact).to_string() != heur.to_string()) ++exact_differs;
  }
  // The opt-in exact path does change some of these covers, so the equality
  // above is the default's doing.
  EXPECT_GT(exact_differs, 0u);
}

/// EXPAND's OFF test as a plain scan: widen the cube, then look for an OFF
/// minterm inside it with contains_code.  The reference for the bit-sliced
/// OFF set heuristic_minimize uses.
bool scalar_widened_hits_off(const SopSpec& spec, const Cube& cube, std::size_t var) {
  Cube widened = cube;
  widened.free_var(var);
  for (const auto& code : spec.off) {
    if (widened.contains_code(code.words())) return true;
  }
  return false;
}

TEST(Minimize, SlicedExpandMatchesScalarScan) {
  mps::util::Rng rng(2025);
  std::size_t multi_word = 0;
  std::size_t high_literals = 0;  // literals on variables 64 and up
  std::vector<std::size_t> sizes;
  for (std::size_t vars = 6; vars <= 17; ++vars) sizes.push_back(vars);
  sizes.insert(sizes.end(), {70, 130});  // cubes of two and three words per row
  for (const std::size_t vars : sizes) {
    for (int trial = 0; trial < 2; ++trial) {
      std::size_t points = 300 + 50 * trial;
      if (vars < 64) points = std::min(points, std::size_t{1} << vars);
      const SopSpec spec = sparse_spec(rng, vars, points, 0.35);
      if (spec.on.empty()) continue;
      if (spec.off.size() > 64) ++multi_word;
      const Cover sliced = heuristic_minimize(spec);
      const Cover scalar = heuristic_minimize(
          spec, 4, [&spec](const Cube& c, std::size_t v) { return scalar_widened_hits_off(spec, c, v); });
      EXPECT_EQ(sliced.to_string(), scalar.to_string()) << vars << " vars, trial " << trial;
      EXPECT_TRUE(cover_is_valid(spec, sliced)) << vars << " vars, trial " << trial;
      for (const Cube& c : sliced.cubes()) {
        EXPECT_TRUE(cube_is_prime(spec, c)) << vars << " vars, trial " << trial;
        for (std::size_t v = 64; v < vars; ++v) high_literals += c.has_literal(v) ? 1 : 0;
      }
    }
  }
  EXPECT_GE(multi_word, 20u);  // most specs span several 64-bit slice words
  EXPECT_GT(high_literals, 0u);
}

TEST(ExactMinimize, RefusesOversizedInstances) {
  SopSpec spec;
  spec.num_vars = 40;  // way past the DC enumeration cap
  spec.on.push_back(BitVec(40));
  EXPECT_FALSE(exact_minimize(spec).has_value());
}

TEST(ExactMinimize, BranchLimitGivesNulloptNotBestSoFar) {
  // 4-variable odd parity: every prime is an ON minterm, so the covering
  // search is a chain of one branch node per ON minterm.
  SopSpec spec;
  spec.num_vars = 4;
  for (int x = 0; x < 16; ++x) {
    BitVec c(4);
    for (int v = 0; v < 4; ++v) c.set(v, (x >> v) & 1);
    (std::popcount(static_cast<unsigned>(x)) % 2 == 1 ? spec.on : spec.off).push_back(c);
  }
  const auto full = exact_minimize(spec);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->literal_count(), 32u);

  MinimizeOptions tiny;
  tiny.exact_max_branch_nodes = 2;
  EXPECT_FALSE(exact_minimize(spec, tiny).has_value());
}

// --- extraction ---------------------------------------------------------

TEST(Extract, HandshakeNextStateFunctions) {
  const auto stg = mps::stg::Builder("hs")
                       .inputs({"r"})
                       .outputs({"a"})
                       .path("r+", "a+", "r-", "a-")
                       .arc("a-", "r+")
                       .token("a-", "r+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  const auto spec = extract_next_state(g, g.find_signal("a"));
  // a follows r: F_a = r.  States 10 and 11 are ON; 00, 01 OFF.
  const Cover f = minimize(spec);
  EXPECT_TRUE(cover_is_valid(spec, f));
  EXPECT_EQ(f.literal_count(), 1u);
  EXPECT_EQ(f.size(), 1u);
}

TEST(Extract, ImpliedValueSemantics) {
  const auto stg = mps::stg::Builder("hs")
                       .inputs({"r"})
                       .outputs({"a"})
                       .path("r+", "a+", "r-", "a-")
                       .arc("a-", "r+")
                       .token("a-", "r+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  const auto a = g.find_signal("a");
  for (mps::sg::StateId s = 0; s < g.num_states(); ++s) {
    const bool v = implied_value(g, s, a);
    if (g.excited_dir(s, a, true)) EXPECT_TRUE(v);    // rising-excited -> 1
    if (g.excited_dir(s, a, false)) EXPECT_FALSE(v);  // falling-excited -> 0
  }
}

TEST(Extract, CscViolationDetected) {
  const auto stg = mps::stg::Builder("toggle")
                       .outputs({"x", "y"})
                       .path("x+", "x-", "y+", "y-")
                       .arc("y-", "x+")
                       .token("y-", "x+")
                       .build();
  const auto g = mps::sg::StateGraph::from_stg(stg);
  EXPECT_THROW(extract_next_state(g, g.find_signal("x")), mps::util::SemanticsError);
}

std::vector<std::string> rendered(const std::vector<BitVec>& codes) {
  std::vector<std::string> out;
  for (const BitVec& c : codes) out.push_back(c.to_string());
  return out;
}

/// `codes` as sorted, unique to_string() renderings.
std::vector<std::string> sorted_codes(const std::vector<BitVec>& codes) {
  std::vector<std::string> out = rendered(codes);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(Extract, MatchesPerStateOracle) {
  // The ON/OFF lists read state by state, no code index: on a CSC graph
  // every code lands in exactly the list its states agree on.
  for (const auto& b : mps::benchmarks::table1_benchmarks()) {
    mps::core::SynthesisOptions opts;
    opts.derive_logic = false;
    const auto r = mps::core::modular_synthesis(b.make(), opts);
    ASSERT_TRUE(r.success) << b.name << ": " << r.failure_reason;
    const mps::sg::StateGraph& g = r.final_graph;
    for (mps::sg::SignalId s = 0; s < g.num_signals(); ++s) {
      if (g.is_input(s)) continue;
      std::vector<BitVec> on, off, set_on, set_off, reset_on, reset_off;
      for (mps::sg::StateId st = 0; st < g.num_states(); ++st) {
        const BitVec& c = g.code(st);
        (implied_value(g, st, s) ? on : off).push_back(c);
        const bool rise = g.excited_dir(st, s, true);
        const bool fall = g.excited_dir(st, s, false);
        if (rise) set_on.push_back(c);
        else if (fall || !c.test(s)) set_off.push_back(c);
        if (fall) reset_on.push_back(c);
        else if (rise || c.test(s)) reset_off.push_back(c);
      }
      const std::string where = b.name + "/" + g.signal(s).name;
      const SopSpec spec = extract_next_state(g, s);
      EXPECT_EQ(rendered(spec.on), sorted_codes(on)) << where;
      EXPECT_EQ(rendered(spec.off), sorted_codes(off)) << where;
      const auto [set, reset] = mps::netlist::extract_set_reset(g, s);
      EXPECT_EQ(rendered(set.on), sorted_codes(set_on)) << where;
      EXPECT_EQ(rendered(set.off), sorted_codes(set_off)) << where;
      EXPECT_EQ(rendered(reset.on), sorted_codes(reset_on)) << where;
      EXPECT_EQ(rendered(reset.off), sorted_codes(reset_off)) << where;
    }
  }
}

// --- PLA I/O -------------------------------------------------------------

TEST(Pla, WriteCoverAndSpec) {
  Cover f(3);
  f.add(Cube::from_string("1-0"));
  const std::string text = write_pla(f, {"a", "b", "c"});
  EXPECT_NE(text.find(".i 3"), std::string::npos);
  EXPECT_NE(text.find("1-0 1"), std::string::npos);
  EXPECT_NE(text.find(".ilb a b c"), std::string::npos);
}

TEST(Pla, ParseRoundTrip) {
  const auto spec = spec_from(3, {"101", "111"}, {"000"});
  const SopSpec back = parse_pla(write_pla(spec));
  EXPECT_EQ(back.num_vars, 3u);
  EXPECT_EQ(back.on.size(), 2u);
  EXPECT_EQ(back.off.size(), 1u);
}

TEST(Pla, DashExpansion) {
  const SopSpec spec = parse_pla(".i 3\n.o 1\n1-- 1\n000 0\n.e\n");
  EXPECT_EQ(spec.on.size(), 4u);  // 1-- expands to 4 minterms
  EXPECT_EQ(spec.off.size(), 1u);
}

TEST(Pla, Errors) {
  EXPECT_THROW(parse_pla(".i 2\n.o 2\n"), mps::util::ParseError);
  EXPECT_THROW(parse_pla("11 1\n"), mps::util::ParseError);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n111 1\n"), mps::util::ParseError);
}

}  // namespace
