#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <unordered_map>

#include "benchmarks/benchmarks.hpp"
#include "benchmarks/generators.hpp"
#include "petri/analysis.hpp"
#include "petri/net.hpp"

namespace {

using namespace mps::petri;
namespace benchmarks = mps::benchmarks;

/// a -> p -> b -> q -> a  (two-transition ring, token on p).
Net make_ring(Marking* m0) {
  Net net;
  const TransId a = net.add_transition("a");
  const TransId b = net.add_transition("b");
  const PlaceId p = net.add_place("p");
  const PlaceId q = net.add_place("q");
  net.connect_tp(a, p);
  net.connect_pt(p, b);
  net.connect_tp(b, q);
  net.connect_pt(q, a);
  *m0 = net.empty_marking();
  m0->add_token(q);
  return net;
}

/// An unsafe net: `loop` feeds t, which puts one more token on p every
/// firing; u drains p, but slower than t fills it.
Net make_unsafe(Marking* m0) {
  Net net;
  const TransId t = net.add_transition("t");
  const TransId u = net.add_transition("u");
  const PlaceId p = net.add_place("p");
  const PlaceId loop = net.add_place("loop");
  net.connect_pt(loop, t);
  net.connect_tp(t, loop);
  net.connect_tp(t, p);
  net.connect_pt(p, u);
  *m0 = net.empty_marking();
  m0->add_token(loop);
  return net;
}

TEST(Marking, TokenAccounting) {
  Marking m(3);
  EXPECT_EQ(m.tokens(0), 0);
  m.add_token(0);
  m.add_token(0);
  EXPECT_EQ(m.tokens(0), 2);
  EXPECT_FALSE(m.is_safe());
  m.remove_token(0);
  EXPECT_TRUE(m.is_safe());
}

TEST(Marking, EqualityAndHash) {
  Marking a(4);
  Marking b(4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  a.add_token(2);
  EXPECT_NE(a, b);
}

TEST(Marking, OverflowThrows) {
  Marking m(1);
  for (int i = 0; i < 255; ++i) m.add_token(0);
  EXPECT_THROW(m.add_token(0), mps::util::SemanticsError);
}

TEST(Net, EnablednessAndFiring) {
  Marking m0;
  const Net net = make_ring(&m0);
  EXPECT_TRUE(net.enabled(m0, 0));   // a has its token in q
  EXPECT_FALSE(net.enabled(m0, 1));  // b waits on p
  const Marking m1 = net.fire(m0, 0);
  EXPECT_FALSE(net.enabled(m1, 0));
  EXPECT_TRUE(net.enabled(m1, 1));
  const Marking m2 = net.fire(m1, 1);
  EXPECT_EQ(m2, m0);  // the ring closes
}

TEST(Net, EnabledTransitionsList) {
  Net net;
  const TransId t0 = net.add_transition("t0");
  const TransId t1 = net.add_transition("t1");
  const PlaceId p = net.add_place("p");
  net.connect_pt(p, t0);
  net.connect_pt(p, t1);
  Marking m = net.empty_marking();
  m.add_token(p);
  const auto enabled = net.enabled_transitions(m);
  ASSERT_EQ(enabled.size(), 2u);
  EXPECT_EQ(enabled[0], t0);
  EXPECT_EQ(enabled[1], t1);
}

TEST(Structure, MarkedGraphDetection) {
  Marking m0;
  const Net ring = make_ring(&m0);
  EXPECT_TRUE(is_marked_graph(ring));
  // Add a choice place feeding both transitions: no longer a marked graph.
  Net net = ring;
  const PlaceId c = net.add_place("c");
  net.connect_pt(c, 0);
  net.connect_pt(c, 1);
  EXPECT_FALSE(is_marked_graph(net));
}

TEST(Structure, FreeChoiceDetection) {
  // Free choice: place feeds t0 and t1, and it is the whole preset of both.
  Net fc;
  const TransId t0 = fc.add_transition("t0");
  const TransId t1 = fc.add_transition("t1");
  const PlaceId p = fc.add_place("p");
  fc.connect_pt(p, t0);
  fc.connect_pt(p, t1);
  EXPECT_TRUE(is_free_choice(fc));
  // Non-free choice: t1 gains a second fan-in place.
  const PlaceId q = fc.add_place("q");
  fc.connect_pt(q, t1);
  EXPECT_FALSE(is_free_choice(fc));
}

TEST(Reachability, RingHasTwoMarkings) {
  Marking m0;
  const Net net = make_ring(&m0);
  const auto r = reachability(net, m0);
  EXPECT_EQ(r.num_markings, 2u);
  EXPECT_EQ(r.edges.size(), 2u);
  EXPECT_TRUE(r.safe);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(is_strongly_connected(r));
  EXPECT_TRUE(is_live(net, r));
}

TEST(Reachability, ConcurrencyEnumeratesInterleavings) {
  // fork -> (a || b) -> join
  Net net;
  const TransId fork = net.add_transition("fork");
  const TransId a = net.add_transition("a");
  const TransId b = net.add_transition("b");
  const TransId join = net.add_transition("join");
  const PlaceId pa = net.add_place("pa");
  const PlaceId pb = net.add_place("pb");
  const PlaceId qa = net.add_place("qa");
  const PlaceId qb = net.add_place("qb");
  const PlaceId back = net.add_place("back");
  net.connect_tp(fork, pa);
  net.connect_tp(fork, pb);
  net.connect_pt(pa, a);
  net.connect_pt(pb, b);
  net.connect_tp(a, qa);
  net.connect_tp(b, qb);
  net.connect_pt(qa, join);
  net.connect_pt(qb, join);
  net.connect_tp(join, back);
  net.connect_pt(back, fork);
  Marking m0 = net.empty_marking();
  m0.add_token(back);
  const auto r = reachability(net, m0);
  // back, (pa,pb), (qa,pb), (pa,qb), (qa,qb) = 5 markings.
  EXPECT_EQ(r.num_markings, 5u);
  EXPECT_TRUE(is_live(net, r));
}

TEST(Reachability, MaxMarkingsCap) {
  Marking m0;
  const Net net = make_ring(&m0);
  ReachabilityOptions opts;
  opts.max_markings = 1;
  const auto r = reachability(net, m0, opts);
  EXPECT_FALSE(r.complete);
}

TEST(Reachability, UnsafeNetDetected) {
  Marking m0;
  const Net net = make_unsafe(&m0);
  ReachabilityOptions opts;
  opts.max_tokens_per_place = 1;
  opts.max_markings = 100;
  const auto r = reachability(net, m0, opts);
  EXPECT_FALSE(r.safe);
}

/// The reference token game: a hash map from Marking to id and a frontier
/// queue, the straightforward breadth-first search the flat engine must
/// reproduce edge for edge.
struct ReferenceReach {
  std::size_t num_markings = 0;
  std::vector<ReachabilityResult::Edge> edges;
  bool safe = true;
  bool complete = true;
};

ReferenceReach reference_reachability(const Net& net, const Marking& m0,
                                      const ReachabilityOptions& opts = {}) {
  ReferenceReach r;
  std::vector<Marking> markings{m0};
  std::unordered_map<Marking, std::uint32_t, MarkingHash> index{{m0, 0}};
  for (PlaceId p = 0; p < net.num_places(); ++p) {
    if (m0.tokens(p) > opts.max_tokens_per_place) r.safe = false;
  }
  std::deque<std::uint32_t> frontier{0};
  while (!frontier.empty()) {
    const std::uint32_t from = frontier.front();
    frontier.pop_front();
    const Marking m = markings[from];
    for (TransId t : net.enabled_transitions(m)) {
      const Marking next = net.fire(m, t);
      for (PlaceId p : net.trans_post(t)) {
        if (next.tokens(p) > opts.max_tokens_per_place) r.safe = false;
      }
      if (const auto it = index.find(next); it != index.end()) {
        r.edges.push_back({from, t, it->second});
        continue;
      }
      if (markings.size() >= opts.max_markings) {
        r.complete = false;
        r.num_markings = markings.size();
        return r;
      }
      const auto id = static_cast<std::uint32_t>(markings.size());
      index.emplace(next, id);
      markings.push_back(next);
      frontier.push_back(id);
      r.edges.push_back({from, t, id});
    }
  }
  r.num_markings = markings.size();
  return r;
}

void expect_matches_reference(const Net& net, const Marking& m0, const ReachabilityOptions& opts,
                              const std::string& name) {
  const ReachabilityResult got = reachability(net, m0, opts);
  const ReferenceReach want = reference_reachability(net, m0, opts);
  EXPECT_EQ(got.num_markings, want.num_markings) << name;
  EXPECT_EQ(got.safe, want.safe) << name;
  EXPECT_EQ(got.complete, want.complete) << name;
  ASSERT_EQ(got.edges.size(), want.edges.size()) << name;
  for (std::size_t i = 0; i < got.edges.size(); ++i) {
    const auto& a = got.edges[i];
    const auto& b = want.edges[i];
    ASSERT_TRUE(a.from == b.from && a.trans == b.trans && a.to == b.to)
        << name << " edge " << i << ": (" << a.from << ", " << a.trans << ", " << a.to
        << ") vs (" << b.from << ", " << b.trans << ", " << b.to << ")";
  }
}

/// The whole exploration, then cutoffs at 1, 2 and one short of the count.
void expect_matches_reference_with_cutoffs(const mps::stg::Stg& spec, const std::string& name) {
  const Net& net = spec.net();
  const Marking& m0 = spec.initial_marking();
  expect_matches_reference(net, m0, {}, name);
  const std::size_t count = reachability(net, m0).num_markings;
  for (const std::size_t cutoff : {std::size_t{1}, std::size_t{2}, count - 1}) {
    ReachabilityOptions opts;
    opts.max_markings = cutoff;
    expect_matches_reference(net, m0, opts, name + " cutoff " + std::to_string(cutoff));
  }
}

TEST(Reachability, MatchesReferenceOnTable1) {
  for (const auto& b : benchmarks::table1_benchmarks()) {
    expect_matches_reference_with_cutoffs(b.make(), b.name);
  }
}

TEST(Reachability, MatchesReferenceOnGenerators) {
  expect_matches_reference_with_cutoffs(benchmarks::gen_pipeline("pipe6", 6), "pipe6");
  expect_matches_reference_with_cutoffs(benchmarks::gen_parallelizer("par4", 4), "par4");
  expect_matches_reference_with_cutoffs(benchmarks::gen_sequencer("seq10", 10), "seq10");
}

TEST(Reachability, MatchesReferenceOnRandomStgs) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    mps::util::Rng rng(seed);
    expect_matches_reference_with_cutoffs(benchmarks::random_stg(rng),
                                          "seed " + std::to_string(seed));
  }
}

TEST(Reachability, MatchesReferenceOnUnsafeNet) {
  Marking m0;
  const Net net = make_unsafe(&m0);
  for (const std::size_t cutoff : {1, 2, 99, 100}) {
    ReachabilityOptions opts;
    opts.max_markings = cutoff;
    expect_matches_reference(net, m0, opts, "unsafe cutoff " + std::to_string(cutoff));
  }
}

TEST(Reachability, TokenOverflowThrows) {
  // p counts t's firings: the 256th token cannot be represented.
  Marking m0;
  const Net net = make_unsafe(&m0);
  ReachabilityOptions opts;
  opts.max_markings = 1000;
  EXPECT_THROW(reachability(net, m0, opts), mps::util::SemanticsError);
  EXPECT_THROW(reference_reachability(net, m0, opts), mps::util::SemanticsError);
}

TEST(Liveness, DeadTransitionMakesNetNotLive) {
  // Ring plus a transition guarded by a never-marked place.
  Net net;
  const TransId a = net.add_transition("a");
  const TransId b = net.add_transition("b");
  const TransId dead = net.add_transition("dead");
  const PlaceId p = net.add_place("p");
  const PlaceId q = net.add_place("q");
  const PlaceId never = net.add_place("never");
  net.connect_tp(a, p);
  net.connect_pt(p, b);
  net.connect_tp(b, q);
  net.connect_pt(q, a);
  net.connect_pt(never, dead);
  Marking m0 = net.empty_marking();
  m0.add_token(q);
  const auto r = reachability(net, m0);
  EXPECT_FALSE(is_live(net, r));
}

}  // namespace
