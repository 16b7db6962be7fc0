// Microbenchmarks of the state-graph substrate: reachability + coding,
// CSC analysis, projection (the ε-merge at the heart of the partitioning)
// and expansion.
#include <benchmark/benchmark.h>

#include "mps.hpp"

namespace {

using namespace mps;

void BM_StateGraphFromStg(benchmark::State& state, const stg::Stg& spec) {
  for (auto _ : state) {
    const auto g = sg::StateGraph::from_stg(spec);
    benchmark::DoNotOptimize(g.num_states());
  }
  state.counters["states"] = static_cast<double>(sg::StateGraph::from_stg(spec).num_states());
}
BENCHMARK_CAPTURE(BM_StateGraphFromStg, par1, benchmarks::gen_parallelizer("par", 1));
BENCHMARK_CAPTURE(BM_StateGraphFromStg, par2, benchmarks::gen_parallelizer("par", 2));
BENCHMARK_CAPTURE(BM_StateGraphFromStg, par3, benchmarks::gen_parallelizer("par", 3));
BENCHMARK_CAPTURE(BM_StateGraphFromStg, par4, benchmarks::gen_parallelizer("par", 4));
// 39,368 states: large enough for the marking store to dominate.
BENCHMARK_CAPTURE(BM_StateGraphFromStg, pipe9, benchmarks::gen_pipeline("pipe9", 9))
    ->Unit(benchmark::kMillisecond);
// 118,100 states, csc-scale's middle explicit input: codes and edges past
// the token game show.
BENCHMARK_CAPTURE(BM_StateGraphFromStg, pipe10, benchmarks::gen_pipeline("pipe10", 10))
    ->Unit(benchmark::kMillisecond);

void BM_Reachability(benchmark::State& state, const stg::Stg& spec) {
  for (auto _ : state) {
    const auto r = petri::reachability(spec.net(), spec.initial_marking());
    benchmark::DoNotOptimize(r.num_markings);
  }
  state.counters["markings"] = static_cast<double>(
      petri::reachability(spec.net(), spec.initial_marking()).num_markings);
}
BENCHMARK_CAPTURE(BM_Reachability, mmu0, benchmarks::find_benchmark("mmu0")->make());
BENCHMARK_CAPTURE(BM_Reachability, mr0, benchmarks::find_benchmark("mr0")->make());
BENCHMARK_CAPTURE(BM_Reachability, pipe9, benchmarks::gen_pipeline("pipe9", 9))
    ->Unit(benchmark::kMillisecond);

void BM_InferCodes(benchmark::State& state, const char* name) {
  const auto stg = benchmarks::find_benchmark(name)->make();
  const auto reach = petri::reachability(stg.net(), stg.initial_marking());
  for (auto _ : state) {
    const auto codes = sg::infer_codes(stg, reach);
    benchmark::DoNotOptimize(codes.size());
  }
  state.counters["markings"] = static_cast<double>(reach.num_markings);
}
BENCHMARK_CAPTURE(BM_InferCodes, mmu0, "mmu0");
BENCHMARK_CAPTURE(BM_InferCodes, mr0, "mr0");

void BM_AnalyzeCsc(benchmark::State& state, const stg::Stg& spec) {
  const auto g = sg::StateGraph::from_stg(spec);
  for (auto _ : state) {
    const auto a = sg::analyze_csc(g);
    benchmark::DoNotOptimize(a.conflicts.size());
  }
  state.counters["states"] = static_cast<double>(g.num_states());
}
BENCHMARK_CAPTURE(BM_AnalyzeCsc, mmu1, benchmarks::find_benchmark("mmu1")->make());
BENCHMARK_CAPTURE(BM_AnalyzeCsc, mmu0, benchmarks::find_benchmark("mmu0")->make());
BENCHMARK_CAPTURE(BM_AnalyzeCsc, mr0, benchmarks::find_benchmark("mr0")->make());
// 39,368 states: large enough for the grouping of states by code to show.
BENCHMARK_CAPTURE(BM_AnalyzeCsc, pipe9, benchmarks::gen_pipeline("pipe9", 9))
    ->Unit(benchmark::kMillisecond);

void BM_HideSignals(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  util::BitVec hide(g.num_signals());
  for (sg::SignalId s = 1; s < g.num_signals(); s += 2) hide.set(s);
  for (auto _ : state) {
    const auto proj = sg::hide_signals(g, hide);
    benchmark::DoNotOptimize(proj.graph.num_states());
  }
}
BENCHMARK_CAPTURE(BM_HideSignals, mmu0, "mmu0");
BENCHMARK_CAPTURE(BM_HideSignals, mr0, "mr0");

void BM_DetermineInputSet(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  sg::Assignments none(g.num_states());
  sg::SignalId o = 0;
  while (g.is_input(o)) ++o;
  for (auto _ : state) {
    const auto isr = core::determine_input_set(g, o, none);
    benchmark::DoNotOptimize(isr.kept.count());
  }
}
BENCHMARK_CAPTURE(BM_DetermineInputSet, mmu1, "mmu1");
BENCHMARK_CAPTURE(BM_DetermineInputSet, mmu0, "mmu0");

void BM_FullModularSynthesis(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  core::SynthesisOptions opts;
  opts.derive_logic = false;  // isolate the partitioning + expansion cost
  for (auto _ : state) {
    const auto r = core::modular_synthesis(g, opts);
    benchmark::DoNotOptimize(r.final_states);
  }
}
BENCHMARK_CAPTURE(BM_FullModularSynthesis, mmu1, "mmu1");
BENCHMARK_CAPTURE(BM_FullModularSynthesis, nak_pa, "nak-pa");

void BM_SemiModularityCheck(benchmark::State& state, const char* name) {
  const auto g =
      sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sg::semi_modularity_violations(g).size());
  }
}
BENCHMARK_CAPTURE(BM_SemiModularityCheck, mr0, "mr0");

/// The gate-level SI search on the final netlist of a modular run.
void BM_VerifySi(benchmark::State& state, const stg::Stg& spec) {
  const auto r = core::modular_synthesis(sg::StateGraph::from_stg(spec));
  const auto n = netlist::build_netlist(r.final_graph, r.covers);
  std::size_t composed = 0;
  for (auto _ : state) {
    const auto si = netlist::verify_speed_independence(n, r.final_graph);
    composed = si.states_explored;
    benchmark::DoNotOptimize(si.ok());
  }
  state.counters["composed_states"] = static_cast<double>(composed);
}
BENCHMARK_CAPTURE(BM_VerifySi, pipe6, benchmarks::gen_pipeline("pipe6", 6))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
