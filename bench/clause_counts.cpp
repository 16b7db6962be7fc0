// Reproduces the paper's §4 formula-size narrative:
//
//   "For STG benchmark mmu0, the direct SAT formulation requires the
//    solution of a very large SAT formula with 35,386 clauses and 1,044
//    variables.  In comparison, our modular synthesis approach requires
//    the solution of only three very small SAT formulas, one with 85
//    clauses and 18 variables and the other two with 954 clauses and 96
//    variables each."
//
// For each large benchmark this prints the direct encoding's size (at the
// lower-bound signal count, as in the paper) next to every module formula
// the modular flow actually solved.  Separability-certificate solves are
// listed apart and left out of the comparison: they are not Figure-4
// formulas.
#include <cstdio>

#include "mps.hpp"

int main() {
  using namespace mps;

  std::printf("Formula sizes: direct (no decomposition) vs per-module (decomposition)\n");
  std::printf("paper reference, mmu0: direct 35386 clauses / 1044 vars; modules 954/96, "
              "954/96, 85/18\n\n");

  for (const char* name : {"mr0", "mr1", "mmu0", "mmu1", "nak-pa", "sbuf-ram-write"}) {
    const auto* b = benchmarks::find_benchmark(name);
    const auto g = sg::StateGraph::from_stg(b->make());
    const auto analysis = sg::analyze_csc(g);
    const std::size_t m = static_cast<std::size_t>(std::max(1, analysis.lower_bound));
    const encoding::Encoding direct(g, m, analysis.conflicts, analysis.compatible_pairs);

    core::SynthesisOptions opts;
    opts.derive_logic = false;
    const auto r = core::modular_synthesis(g, opts);

    std::printf("%-15s states %4zu  conflicts %4zu  lower bound %d\n", name, g.num_states(),
                analysis.conflicts.size(), analysis.lower_bound);
    std::printf("  direct formula        : %7zu clauses, %5zu vars  (m = %zu)\n",
                direct.cnf().num_clauses(), direct.cnf().num_vars(), m);
    std::size_t total = 0;
    std::size_t count = 0;
    for (const bool certificate : {false, true}) {
      for (const auto& module : r.modules) {
        for (const auto& f : module.formulas) {
          if (f.certificate != certificate) continue;
          std::printf("  %s %-12s : %7zu clauses, %5zu vars  (m = %zu, %s)\n",
                      certificate ? "certificate" : "module     ", module.output.c_str(),
                      f.num_clauses, f.num_vars, f.num_new_signals,
                      f.outcome == sat::Outcome::Sat     ? "SAT"
                      : f.outcome == sat::Outcome::Unsat ? "UNSAT"
                                                         : "limit");
          if (certificate) continue;
          total += f.num_clauses;
          ++count;
        }
      }
    }
    if (count > 0) {
      std::printf("  all %zu module formulas together: %zu clauses — %.1fx smaller than "
                  "the direct formula\n",
                  count, total,
                  total > 0 ? static_cast<double>(direct.cnf().num_clauses()) / total : 0.0);
    }
    std::printf("\n");
  }
  return 0;
}
