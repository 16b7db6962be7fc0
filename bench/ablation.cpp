// Ablations over the encoding choices DESIGN.md calls out:
//   1. input properness (not in the paper's constraint set; see DESIGN.md),
//   2. naive vs Tseitin separation encoding.
// Each variant runs the modular flow over a fixed benchmark set and prints
// inserted signals / final states / area / time.
#include <cstdio>
#include <vector>

#include "mps.hpp"

namespace {

using namespace mps;

const std::vector<const char*> kSet = {"nouse",  "wrdata",         "pa",
                                       "atod",   "alloc-outbound", "nak-pa",
                                       "mmu1",   "sbuf-ram-write", "mmu0"};

struct Totals {
  std::size_t added_signals = 0;
  std::size_t final_states = 0;
  std::size_t literals = 0;
  double seconds = 0.0;
  int failures = 0;
};

Totals run(const core::SynthesisOptions& opts) {
  Totals t;
  for (const char* name : kSet) {
    const auto g = sg::StateGraph::from_stg(benchmarks::find_benchmark(name)->make());
    const auto r = core::modular_synthesis(g, opts);
    if (!r.success) {
      ++t.failures;
      continue;
    }
    t.added_signals += r.final_signals - r.initial_signals;
    t.final_states += r.final_states;
    t.literals += r.total_literals;
    t.seconds += r.seconds;
  }
  return t;
}

void report(const char* label, const Totals& t) {
  std::printf("%-34s  +signals %3zu  states %6zu  literals %5zu  time %6.2fs  fail %d\n",
              label, t.added_signals, t.final_states, t.literals, t.seconds, t.failures);
}

}  // namespace

int main() {
  std::printf("Ablations over %zu benchmarks (totals across the set)\n\n", kSet.size());

  {
    std::printf("-- input properness (extra constraint, not in the paper) --\n");
    core::SynthesisOptions off;
    report("off (paper-faithful, default)", run(off));
    core::SynthesisOptions on;
    on.sat.encode.input_properness = true;
    report("on (inputs never delayed)", run(on));
  }
  {
    std::printf("\n-- separation clause encoding --\n");
    core::SynthesisOptions naive;
    naive.sat.encode.naive_max_m = 10;
    report("naive 4^m expansion", run(naive));
    core::SynthesisOptions tseitin;
    tseitin.sat.encode.naive_max_m = 0;
    report("Tseitin auxiliaries", run(tseitin));
  }
  std::printf("\nNotes: 'input properness on' may fail on specifications whose only\n");
  std::printf("insertion points sit on input edges; the count appears under 'fail'.\n");
  return 0;
}
