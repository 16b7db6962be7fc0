#include "baseline/vanbekbergen.hpp"

namespace mps::baseline {

DirectResult direct_synthesis(const sg::StateGraph& input, const DirectOptions& opts) {
  DirectResult result;
  // Each round encodes every remaining conflict of the complete graph.
  const core::RoundPolicy round = [&](const sg::StateGraph& g, const sg::CscResult& csc,
                                      int r) -> std::optional<sg::Assignments> {
    result.rounds = r;
    sg::Assignments assigns(g.num_states());
    const sat::Outcome outcome =
        core::direct_round(g, csc, encoding::EncodeOptions{}, opts.solve,
                           "csc" + std::to_string(g.num_signals()) + "_", &assigns,
                           &result.formulas);
    if (outcome == sat::Outcome::Sat) return assigns;
    if (outcome == sat::Outcome::Limit) {
      result.hit_limit = true;
      result.failure_reason = "SAT backtrack/time limit on the direct formula";
    } else {
      result.failure_reason = "no assignment within the state-signal bound";
    }
    return std::nullopt;
  };
  core::run_insertion_flow(input,
                           {.max_rounds = opts.max_rounds,
                            .exhausted_reason = "CSC conflicts remain after " +
                                                std::to_string(opts.max_rounds) + " rounds",
                            .deadline = opts.solve.deadline,
                            .check_consistency = false,
                            .derive_logic = opts.derive_logic,
                            .minimize = opts.minimize},
                           round, &result);
  for (const core::FormulaStat& f : result.formulas) result.solver_totals.add(f);
  return result;
}

DirectResult direct_synthesis(const stg::Stg& stg, const DirectOptions& opts) {
  return direct_synthesis(sg::StateGraph::from_stg(stg), opts);
}

}  // namespace mps::baseline
