// Microbenchmarks of the two-level minimizer (the espresso replacement)
// and the BDD package.
#include <benchmark/benchmark.h>

#include <unordered_set>

#include "mps.hpp"

namespace {

using namespace mps;

/// Each code is ON with probability on_p, OFF with off_p, else don't-care.
/// The codes are every code up to 10 variables; above that, 1024 distinct
/// random ones — next-state functions of the largest Table-1 final graphs
/// (mr0: 17 signals, 1094 states) are that sparse.
logic::SopSpec random_spec(std::uint64_t seed, std::size_t vars, double on_p, double off_p) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> codes;
  if (vars <= 10) {
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << vars); ++x) codes.push_back(x);
  } else {
    std::unordered_set<std::uint64_t> seen;
    while (seen.size() < 1024) {
      const std::uint64_t x = rng.below(std::uint64_t{1} << vars);
      if (seen.insert(x).second) codes.push_back(x);
    }
  }
  logic::SopSpec spec;
  spec.num_vars = vars;
  for (const std::uint64_t x : codes) {
    util::BitVec c(vars);
    for (std::size_t v = 0; v < vars; ++v) c.set(v, (x >> v) & 1);
    const double dice = rng.uniform();
    if (dice < on_p) {
      spec.on.push_back(c);
    } else if (dice < on_p + off_p) {
      spec.off.push_back(c);
    }
  }
  return spec;
}

void BM_HeuristicMinimize(benchmark::State& state) {
  const auto spec = random_spec(7, static_cast<std::size_t>(state.range(0)), 0.4, 0.4);
  for (auto _ : state) {
    const auto f = logic::heuristic_minimize(spec);
    benchmark::DoNotOptimize(f.literal_count());
  }
}
// 17 variables is the Table-1 maximum (mr0's final graph).
BENCHMARK(BM_HeuristicMinimize)->Arg(6)->Arg(8)->Arg(10)->Arg(14)->Arg(17);

void BM_ExactMinimize(benchmark::State& state) {
  const auto spec = random_spec(11, static_cast<std::size_t>(state.range(0)), 0.35, 0.4);
  for (auto _ : state) {
    const auto f = logic::exact_minimize(spec);
    benchmark::DoNotOptimize(f.has_value());
  }
}
BENCHMARK(BM_ExactMinimize)->Arg(6)->Arg(8)->Arg(10);

/// Extraction of the first non-input signal from `spec`'s final graph.
void BM_ExtractNextState(benchmark::State& state, const stg::Stg& spec) {
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(spec, opts);
  if (!r.success) {
    state.SkipWithError("synthesis failed");
    return;
  }
  sg::SignalId s = 0;
  while (r.final_graph.is_input(s)) ++s;
  for (auto _ : state) {
    const auto ns = logic::extract_next_state(r.final_graph, s);
    benchmark::DoNotOptimize(ns.on.size());
  }
  state.counters["states"] = static_cast<double>(r.final_graph.num_states());
}
BENCHMARK_CAPTURE(BM_ExtractNextState, sbuf_ram_write,
                  benchmarks::find_benchmark("sbuf-ram-write")->make());
BENCHMARK_CAPTURE(BM_ExtractNextState, pipe6, benchmarks::gen_pipeline("pipe6", 6))
    ->Unit(benchmark::kMillisecond);

void BM_DeriveAllLogic(benchmark::State& state, const stg::Stg& spec) {
  const auto g = sg::StateGraph::from_stg(spec);
  core::SynthesisOptions opts;
  opts.derive_logic = false;
  const auto r = core::modular_synthesis(g, opts);
  if (!r.success) {
    state.SkipWithError("synthesis failed");
    return;
  }
  for (auto _ : state) {
    const auto lits = core::derive_all_logic(r.final_graph, {}, nullptr);
    benchmark::DoNotOptimize(lits);
  }
}
BENCHMARK_CAPTURE(BM_DeriveAllLogic, mmu1, benchmarks::find_benchmark("mmu1")->make());
BENCHMARK_CAPTURE(BM_DeriveAllLogic, atod, benchmarks::find_benchmark("atod")->make());
// The largest Table-1 logic row.
BENCHMARK_CAPTURE(BM_DeriveAllLogic, mr0, benchmarks::find_benchmark("mr0")->make());
// 7,887 final states and 20 signals: ON/OFF sets of thousands of codes.
BENCHMARK_CAPTURE(BM_DeriveAllLogic, pipe6, benchmarks::gen_pipeline("pipe6", 6))
    ->Unit(benchmark::kMillisecond);

void BM_BddFromMinterms(benchmark::State& state) {
  const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark("mmu0")->make());
  std::vector<mps::util::BitVec> codes;
  for (sg::StateId s = 0; s < g.num_states(); ++s) codes.push_back(g.code(s));
  for (auto _ : state) {
    bdd::Manager mgr(g.num_signals());
    benchmark::DoNotOptimize(mgr.from_minterms(codes));
  }
}
BENCHMARK(BM_BddFromMinterms);

void BM_BddCscCheck(benchmark::State& state) {
  const auto spec = benchmarks::find_benchmark("mmu1")->make();
  for (auto _ : state) {
    bdd::SymbolicStg sym(spec);
    benchmark::DoNotOptimize(sym.check_csc().holds);
  }
}
BENCHMARK(BM_BddCscCheck);

}  // namespace

BENCHMARK_MAIN();
