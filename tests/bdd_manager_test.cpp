// The BDD manager's tables: the work a symbolic pipeline run does is
// pinned counter by counter, and hash-consing stays canonical while the
// unique table and the memo tables grow and after gc() renumbers the
// nodes.  Runs in mps_bdd_tests under the `bdd` ctest label.
#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/symbolic.hpp"
#include "benchmarks/generators.hpp"
#include "util/common.hpp"

namespace {

using namespace mps;
using bdd::Manager;
using bdd::NodeId;

struct PipelineWork {
  int stages;
  double states;
  std::size_t nodes, unique_size;
  std::uint64_t ops, cache_hits, cache_misses;
};

TEST(BddStats, SymbolicPipelineWorkIsPinned) {
  // Reachability plus the CSC check, counted operation by operation.  The
  // memo tables are exact, so how they are stored must not move any of
  // these figures.
  const PipelineWork pinned[] = {
      {10, 118100, 126118, 126116, 278305, 33055, 278305},
      {12, 1062884, 217640, 217638, 469622, 57162, 469622},
  };
  for (const PipelineWork& want : pinned) {
    SCOPED_TRACE("pipe" + std::to_string(want.stages));
    bdd::SymbolicStg sym(benchmarks::gen_pipeline("pipe", want.stages));
    sym.reachable();
    EXPECT_FALSE(sym.check_csc().holds);
    EXPECT_EQ(sym.num_states(), want.states);
    const Manager& mgr = sym.manager();
    EXPECT_EQ(mgr.num_nodes(), want.nodes);
    EXPECT_EQ(mgr.unique_size(), want.unique_size);
    EXPECT_EQ(mgr.stats().ops, want.ops);
    EXPECT_EQ(mgr.stats().cache_hits, want.cache_hits);
    EXPECT_EQ(mgr.stats().cache_misses, want.cache_misses);
    EXPECT_EQ(mgr.stats().gc_runs, 0u);
  }
}

/// Random functions built from var/nvar and ite alone, recording every
/// call's result.  ITE's recursive sub-results all end up below the result
/// of the call that made them, so the list reaches every node the build
/// creates.
std::vector<NodeId> build_functions(Manager& mgr, std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<NodeId> fs;
  for (std::uint32_t v = 0; v < mgr.num_vars(); ++v) {
    fs.push_back(mgr.var(v));
    fs.push_back(mgr.nvar(v));
  }
  while (fs.size() < count) {
    const NodeId f = fs[rng.below(fs.size())];
    const NodeId g = fs[rng.below(fs.size())];
    const NodeId h = fs[rng.below(fs.size())];
    fs.push_back(mgr.ite(f, g, h));
  }
  return fs;
}

TEST(BddUnique, CanonicalAcrossGrowthAndGc) {
  constexpr std::size_t kCount = 300;
  Manager mgr(12);
  // Garbage first, so gc() has nodes below the kept ones to squeeze out.
  build_functions(mgr, 7, kCount);
  std::vector<NodeId> fs = build_functions(mgr, 11, kCount);
  // Far past the initial sizes of every table (2^8 buckets or slots
  // each): all three have doubled several times.
  ASSERT_GT(mgr.num_nodes(), std::size_t{1} << 14);
  ASSERT_GT(mgr.stats().cache_misses, std::uint64_t{1} << 14);

  // Rebuilding finds every node and every top-level ITE again: no node
  // is created and no operation misses the memo tables.
  const std::size_t nodes = mgr.num_nodes();
  const Manager::Stats before = mgr.stats();
  EXPECT_EQ(build_functions(mgr, 11, kCount), fs);
  EXPECT_EQ(mgr.num_nodes(), nodes);
  EXPECT_EQ(mgr.stats().ops, before.ops);
  EXPECT_EQ(mgr.stats().cache_misses, before.cache_misses);

  // After gc() renumbers the survivors, the rehashed unique table finds
  // them under their new ids; the memo tables start empty, so the rebuild
  // recomputes, yet creates nothing.
  std::vector<NodeId*> roots;
  for (NodeId& f : fs) roots.push_back(&f);
  EXPECT_GT(mgr.gc(roots), 0u);
  const std::size_t live = mgr.num_nodes();
  EXPECT_EQ(mgr.unique_size(), live - 2);
  EXPECT_EQ(build_functions(mgr, 11, kCount), fs);
  EXPECT_EQ(mgr.num_nodes(), live);
  EXPECT_GT(mgr.stats().ops, before.ops);
}

}  // namespace
