// Microbenchmarks of the SAT substrate: encoding construction, DPLL, CDCL and
// WalkSAT on the CSC formulas the synthesis flow actually generates.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "mps.hpp"

namespace {

using namespace mps;

const sg::StateGraph& graph_of(const std::string& name) {
  static std::map<std::string, sg::StateGraph> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, sg::StateGraph::from_stg(
                                 benchmarks::find_benchmark(name)->make()))
             .first;
  }
  return it->second;
}

void BM_EncodeCsc(benchmark::State& state, const char* name, std::size_t m) {
  const auto& g = graph_of(name);
  const auto analysis = sg::analyze_csc(g);
  for (auto _ : state) {
    const encoding::Encoding enc(g, m, analysis.conflicts, analysis.compatible_pairs);
    benchmark::DoNotOptimize(enc.cnf().num_clauses());
  }
  state.counters["clauses"] = static_cast<double>(
      encoding::Encoding(g, m, analysis.conflicts, analysis.compatible_pairs)
          .cnf()
          .num_clauses());
}
BENCHMARK_CAPTURE(BM_EncodeCsc, mmu1_m2, "mmu1", 2);
BENCHMARK_CAPTURE(BM_EncodeCsc, mmu0_m3, "mmu0", 3);
BENCHMARK_CAPTURE(BM_EncodeCsc, mr0_m3, "mr0", 3);

void BM_DpllModuleFormula(benchmark::State& state, const char* name) {
  // Solve the first nontrivial module formula of the benchmark.
  const auto& g = graph_of(name);
  sg::Assignments none(g.num_states());
  encoding::Encoding* enc = nullptr;
  for (sg::SignalId o = 0; o < g.num_signals() && enc == nullptr; ++o) {
    if (g.is_input(o)) continue;
    const auto isr = core::determine_input_set(g, o, none);
    const auto module = core::build_module(g, o, isr, none);
    if (module.conflicts.empty()) continue;
    enc = new encoding::Encoding(module.proj.graph,
                                 static_cast<std::size_t>(std::max(1, module.lower_bound)),
                                 module.conflicts, module.compatible_pairs);
  }
  if (enc == nullptr) {
    state.SkipWithError("no module with conflicts");
    return;
  }
  for (auto _ : state) {
    sat::Model model;
    const auto outcome = sat::Solver().solve(enc->cnf(), &model);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["vars"] = static_cast<double>(enc->cnf().num_vars());
  delete enc;
}
BENCHMARK_CAPTURE(BM_DpllModuleFormula, mmu1, "mmu1");
BENCHMARK_CAPTURE(BM_DpllModuleFormula, nak_pa, "nak-pa");
BENCHMARK_CAPTURE(BM_DpllModuleFormula, sbuf_ram_write, "sbuf-ram-write");

void BM_CdclDirectFormula(benchmark::State& state, const char* name) {
  // The direct baseline's first formula: the whole graph at the CSC lower
  // bound, solved by the CDCL engine as the baselines run it.
  const auto& g = graph_of(name);
  const auto csc = sg::analyze_csc(g);
  const encoding::Encoding enc(g, static_cast<std::size_t>(std::max(1, csc.lower_bound)),
                               csc.conflicts, csc.compatible_pairs);
  sat::SolveOptions opts;
  opts.engine = sat::Engine::Cdcl;
  std::int64_t propagations = 0;
  for (auto _ : state) {
    sat::Model model;
    sat::SolveStats stats;
    benchmark::DoNotOptimize(sat::Solver().solve(enc.cnf(), &model, &stats, opts));
    propagations += stats.propagations;
  }
  state.counters["clauses"] = static_cast<double>(enc.cnf().num_clauses());
  state.counters["props_per_s"] =
      benchmark::Counter(static_cast<double>(propagations), benchmark::Counter::kIsRate);
}
// mmu1 is the quick case; nak-pa's formula stores enough learned clauses to
// run clause-DB reduction and arena compaction.
BENCHMARK_CAPTURE(BM_CdclDirectFormula, mmu1, "mmu1")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CdclDirectFormula, nak_pa, "nak-pa")->Unit(benchmark::kMillisecond);

void BM_WalkSatRandom3Sat(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  util::Rng rng(42);
  sat::Cnf cnf;
  cnf.new_vars(vars);
  for (int c = 0; c < vars * 3; ++c) {
    std::vector<sat::Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(
          sat::Lit::make(static_cast<sat::Var>(rng.below(vars)), rng.chance(0.5)));
    }
    cnf.add_clause(clause);
  }
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sat::Model model;
    sat::LocalSearchOptions opts;
    opts.seed = seed++;
    benchmark::DoNotOptimize(sat::walksat(cnf, &model, nullptr, opts));
  }
}
BENCHMARK(BM_WalkSatRandom3Sat)->Arg(50)->Arg(100)->Arg(200);

void BM_DimacsRoundTrip(benchmark::State& state) {
  const auto& g = graph_of("mmu1");
  const auto enc = encoding::encode_csc(g, 2);
  for (auto _ : state) {
    const std::string text = sat::write_dimacs(enc.cnf());
    const sat::Cnf back = sat::parse_dimacs(text);
    benchmark::DoNotOptimize(back.num_clauses());
  }
}
BENCHMARK(BM_DimacsRoundTrip);

}  // namespace

BENCHMARK_MAIN();
