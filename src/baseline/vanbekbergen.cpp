#include "baseline/vanbekbergen.hpp"

#include <algorithm>

#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "sg/projection.hpp"
#include "util/common.hpp"

namespace mps::baseline {

DirectResult direct_synthesis(const sg::StateGraph& input, const DirectOptions& opts) {
  util::Timer timer;
  DirectResult result;

  sg::StateGraph g = sg::contract_silent(input);
  result.initial_states = g.num_states();
  result.initial_signals = g.num_signals();

  for (int round = 1; round <= opts.max_rounds; ++round) {
    if (sat::deadline_passed(opts.solve.deadline)) {
      result.hit_limit = true;
      result.failure_reason = "deadline exceeded";
      break;
    }
    const auto analysis = sg::analyze_csc(g);
    if (analysis.satisfied()) break;
    result.rounds = round;

    sg::Assignments assigns(g.num_states());
    bool solved = false;
    std::size_t m = static_cast<std::size_t>(std::max(1, analysis.lower_bound));
    for (; m <= opts.max_new_signals; ++m) {
      const encoding::Encoding enc(g, m, analysis.conflicts, analysis.compatible_pairs,
                                   opts.encode);
      sat::Model model;
      result.formulas.push_back(core::solve_formula(enc, opts.solve, &model));
      const core::FormulaStat& stat = result.formulas.back();
      result.solver_totals.add(stat);
      if (stat.outcome == sat::Outcome::Limit) {
        result.hit_limit = true;
        result.failure_reason = "SAT backtrack/time limit on the direct formula";
        break;
      }
      if (stat.outcome == sat::Outcome::Sat) {
        enc.decode(model, &assigns, "csc" + std::to_string(g.num_signals()) + "_");
        solved = true;
        break;
      }
    }
    if (!solved) {
      if (result.failure_reason.empty()) {
        result.failure_reason = "no assignment within the state-signal bound";
      }
      break;
    }
    g = sg::expand(g, assigns, /*check_consistency=*/false).graph;
  }

  result.success = result.failure_reason.empty() && sg::analyze_csc(g).satisfied();
  result.final_states = g.num_states();
  result.final_signals = g.num_signals();
  result.final_graph = std::move(g);
  if (result.success && opts.derive_logic) {
    result.total_literals =
        core::derive_all_logic(result.final_graph, opts.minimize, &result.covers);
  }
  result.seconds = timer.seconds();
  return result;
}

DirectResult direct_synthesis(const stg::Stg& stg, const DirectOptions& opts) {
  return direct_synthesis(sg::StateGraph::from_stg(stg), opts);
}

}  // namespace mps::baseline
