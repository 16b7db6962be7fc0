// Microbenchmarks of the BDD layer: the memoized-vs-unmemoized restrict,
// the relational product against the naive conjoin-then-quantify
// schedule, the symbolic engine against explicit enumeration on the
// pipeline family, and the cost of freeing a large manager.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "mps.hpp"

namespace {

using namespace mps;

/// n-variable parity — maximally shared: 2n-1 internal nodes, every one
/// reached along exponentially many paths, so an unmemoized cofactor walk
/// is Θ(2^n) while the memoized one is Θ(n).
bdd::NodeId parity(bdd::Manager& mgr, std::uint32_t n) {
  bdd::NodeId f = bdd::kFalse;
  for (std::uint32_t v = n; v-- > 0;) f = mgr.bdd_xor(mgr.var(v), f);
  return f;
}

void BM_RestrictMemo(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  bdd::Manager mgr(n);
  const bdd::NodeId f = parity(mgr, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.restrict(f, n - 2, true));
  }
}
BENCHMARK(BM_RestrictMemo)->Arg(20);

void BM_RestrictNoMemo(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  bdd::Manager mgr(n);
  const bdd::NodeId f = parity(mgr, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.restrict_nomemo(f, n - 2, true));
  }
}
BENCHMARK(BM_RestrictNoMemo)->Arg(20);

/// One image step of the pipeline engine, comparing the fused relational
/// product with the same computation as conjoin-then-quantify.
struct ImageFixture {
  stg::Stg spec;
  bdd::SymbolicStg sym;
  explicit ImageFixture(int stages)
      : spec(benchmarks::gen_pipeline("pipe", stages)), sym(spec) {
    sym.reachable();
  }
};

void BM_AndExistsFused(benchmark::State& state) {
  static ImageFixture fx(10);
  bdd::Manager& mgr = fx.sym.manager();
  const bdd::NodeId r = fx.sym.reachable();
  // Quantify the places out of the reached set — the projection CSC does.
  std::vector<std::uint32_t> places;
  for (petri::PlaceId p = 0; p < fx.spec.net().num_places(); ++p) {
    places.push_back(fx.sym.place_var(p));
  }
  const bdd::NodeId cube = mgr.cube(places);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.and_exists(r, r, cube));
  }
}
BENCHMARK(BM_AndExistsFused);

void BM_AndThenExists(benchmark::State& state) {
  static ImageFixture fx(10);
  bdd::Manager& mgr = fx.sym.manager();
  const bdd::NodeId r = fx.sym.reachable();
  std::vector<std::uint32_t> places;
  for (petri::PlaceId p = 0; p < fx.spec.net().num_places(); ++p) {
    places.push_back(fx.sym.place_var(p));
  }
  const bdd::NodeId cube = mgr.cube(places);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.exists_cube(mgr.bdd_and(r, r), cube));
  }
}
BENCHMARK(BM_AndThenExists);

void BM_SymbolicReach(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  const stg::Stg spec = benchmarks::gen_pipeline("pipe", stages);
  double states_reached = 0;
  for (auto _ : state) {
    bdd::SymbolicStg sym(spec);
    states_reached = sym.num_states();
    benchmark::DoNotOptimize(states_reached);
  }
  state.counters["states"] = states_reached;
}
BENCHMARK(BM_SymbolicReach)->Arg(8)->Arg(12);

/// Freeing the engine after a pipeline run: the manager's node array and
/// its unique and memo tables (pipe12: 2.2·10^5 nodes, 4.7·10^5 memo
/// entries).  Only the destruction is timed.
void BM_ManagerTeardown(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  const stg::Stg spec = benchmarks::gen_pipeline("pipe", stages);
  for (auto _ : state) {
    state.PauseTiming();
    std::optional<bdd::SymbolicStg> sym(spec);
    sym->check_csc();
    state.ResumeTiming();
    sym.reset();
  }
}
BENCHMARK(BM_ManagerTeardown)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_ExplicitReach(benchmark::State& state) {
  const int stages = static_cast<int>(state.range(0));
  const stg::Stg spec = benchmarks::gen_pipeline("pipe", stages);
  std::size_t states_reached = 0;
  for (auto _ : state) {
    const sg::StateGraph g = sg::StateGraph::from_stg(spec);
    states_reached = g.num_states();
    benchmark::DoNotOptimize(states_reached);
  }
  state.counters["states"] = static_cast<double>(states_reached);
}
BENCHMARK(BM_ExplicitReach)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
