// Walks one benchmark through BOTH synthesis paths of the paper's
// Figure 1 and prints what each step does:
//
//   (a) direct approach:        STG -> Σ -> one big SAT formula -> circuit
//   (b) modular partitioning:   STG -> Σ -> {Σ_o1, Σ_o2, ...} -> small SAT
//                               formulas -> propagate -> expand -> circuit
//
//   $ ./modular_vs_direct [benchmark]     (default mmu1)
#include <cstdio>
#include <string>

#include "mps.hpp"

int main(int argc, char** argv) {
  using namespace mps;

  const std::string name = argc > 1 ? argv[1] : "mmu1";
  const auto* bench = benchmarks::find_benchmark(name);
  if (bench == nullptr) {
    std::printf("unknown benchmark '%s'; available:\n", name.c_str());
    for (const auto& b : benchmarks::table1_benchmarks()) std::printf("  %s\n", b.name.c_str());
    return 1;
  }

  const auto g = sg::StateGraph::from_stg(bench->make());
  const auto analysis = sg::analyze_csc(g);
  std::printf("=== %s: complete state graph ===\n", name.c_str());
  std::printf("states %zu, edges %zu, concurrent pairs %zu\n", g.num_states(), g.num_edges(),
              g.num_concurrent_pairs());
  std::printf("CSC conflicts %zu, USC pairs %zu, Max_csc %zu, lower bound %d\n\n",
              analysis.conflicts.size(), analysis.num_usc_pairs, analysis.max_class_size,
              analysis.lower_bound);

  // --- Figure 1(a): the direct approach --------------------------------
  std::printf("=== direct approach (Figure 1a) ===\n");
  const std::size_t m0 = static_cast<std::size_t>(std::max(1, analysis.lower_bound));
  const encoding::Encoding direct(g, m0, analysis.conflicts, analysis.compatible_pairs);
  std::printf("one SAT formula over the whole graph: %zu clauses, %zu variables (m=%zu)\n",
              direct.cnf().num_clauses(), direct.cnf().num_vars(), m0);
  baseline::DirectOptions vopts;
  vopts.solve.max_backtracks = 2'000'000;
  vopts.solve.time_limit_s = 30.0;
  const auto v = baseline::direct_synthesis(g, vopts);
  if (v.success) {
    std::printf("solved: +%zu signals, %zu final states, %zu literals, %.3fs\n\n",
                v.final_signals - v.initial_signals, v.final_states, v.total_literals,
                v.seconds);
  } else {
    std::printf("NOT solved within the budget (%s), %.3fs — the paper's 'SAT Backtrack "
                "Limit' row\n\n",
                v.failure_reason.c_str(), v.seconds);
  }

  // --- Figure 1(b): the modular topology --------------------------------
  std::printf("=== modular partitioning (Figure 1b) ===\n");
  const auto m = core::modular_synthesis(g);
  for (const auto& module : m.modules) {
    std::printf("module for output %-8s: input set %zu signals, %zu states, %zu conflicts",
                module.output.c_str(), module.input_set_size, module.module_states,
                module.module_conflicts);
    if (module.formulas.empty()) {
      std::printf(" (no SAT needed)");
    }
    for (const auto& f : module.formulas) {
      std::printf("\n    %s: m=%zu, %zu clauses, %zu vars -> %s",
                  f.certificate ? "certificate" : "SAT formula", f.num_new_signals,
                  f.num_clauses, f.num_vars,
                  f.outcome == sat::Outcome::Sat ? "SAT"
                  : f.outcome == sat::Outcome::Unsat
                      ? (f.certificate ? "UNSAT, no signal count works" : "UNSAT, add a signal")
                      : "limit");
    }
    std::printf("\n");
  }
  std::printf("result: %s, +%zu signals, %zu final states, %zu literals, %.3fs in %d "
              "round(s)\n",
              m.success ? "ok" : "FAILED", m.final_signals - m.initial_signals,
              m.final_states, m.total_literals, m.seconds, m.rounds);

  if (m.success && v.success && m.seconds > 0.0) {
    std::printf("\nspeedup over the direct approach: %.1fx\n", v.seconds / m.seconds);
  }
  return m.success ? 0 : 1;
}
