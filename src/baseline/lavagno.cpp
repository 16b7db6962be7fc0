#include "baseline/lavagno.hpp"

#include <algorithm>

#include "encoding/csc_sat.hpp"
#include "sat/local_search.hpp"
#include "sat/solver.hpp"

namespace mps::baseline {

namespace {

/// The conflicts of the code class with the most of them (the "worst"
/// class), ties to the class holding the smallest pair.  `conflicts` is
/// non-empty and sorted, as analyze_csc returns it, and so is the result.
std::vector<std::pair<sg::StateId, sg::StateId>> worst_class_conflicts(
    const sg::StateGraph& g, const std::vector<std::pair<sg::StateId, sg::StateId>>& conflicts) {
  MPS_ASSERT(!conflicts.empty() && std::is_sorted(conflicts.begin(), conflicts.end()));
  const std::vector<std::uint32_t> class_of = sg::code_classes(g).class_of;
  std::vector<std::size_t> count(g.num_states(), 0);  // by class id
  for (const auto& pair : conflicts) ++count[class_of[pair.first]];
  const auto more_conflicts = [&](const auto& x, const auto& y) {
    return count[class_of[x.first]] > count[class_of[y.first]];
  };
  const std::uint32_t worst =
      class_of[std::min_element(conflicts.begin(), conflicts.end(), more_conflicts)->first];
  std::vector<std::pair<sg::StateId, sg::StateId>> best = conflicts;
  std::erase_if(best, [&](const auto& pair) { return class_of[pair.first] != worst; });
  return best;
}

}  // namespace

LavagnoResult lavagno_synthesis(const sg::StateGraph& input, const LavagnoOptions& opts) {
  LavagnoResult result;
  // The one deadline of the run: the overall budget folded into the
  // caller's cutoff.
  sat::SolveOptions solve = opts.solve;
  solve.deadline = util::Deadline::after(opts.time_limit_s).min(opts.solve.deadline);
  // Resolve one code class per round, escalating the signal count for that
  // class until its conflicts are separable — whole-graph encodings
  // throughout, never any decomposition.
  const core::RoundPolicy round = [&](const sg::StateGraph& g, const sg::CscResult& csc,
                                      int) -> std::optional<sg::Assignments> {
    const auto class_conflicts = worst_class_conflicts(g, csc.conflicts);
    sg::Assignments assigns(g.num_states());
    for (std::size_t m = 1; m <= kMaxSignalsPerClass && assigns.empty(); ++m) {
      const encoding::Encoding enc(g, m, class_conflicts, csc.compatible_pairs);
      sat::Model model;
      sat::SolveStats sstats;
      sat::Outcome outcome = sat::Outcome::Unsat;
      if (sat::walksat(enc.cnf(), &model, nullptr,
                       {/*seed=*/m, /*max_flips=*/50000, /*max_tries=*/2, /*noise=*/0.5})) {
        outcome = sat::Outcome::Sat;
      } else {
        outcome = sat::Solver().solve(enc.cnf(), &model, &sstats, solve);
        result.solver_totals.add(sstats);
      }
      if (outcome == sat::Outcome::Limit) result.hit_limit = true;  // note it, keep escalating
      if (outcome == sat::Outcome::Sat) {
        core::decode_varying(enc, model, "x" + std::to_string(g.num_signals()) + "_",
                             &assigns);
      }
    }
    if (assigns.empty()) {
      result.failure_reason = result.hit_limit
                                  ? "SAT limit during class insertion"
                                  : "target class not separable within the signal bound";
      return std::nullopt;
    }
    result.insertions += static_cast<int>(assigns.num_signals());
    return assigns;
  };
  // Per-insertion re-expansion is this baseline's inner loop: skip the
  // O(V·E) structural re-check, the expansion itself enforces the
  // invariants.
  core::run_insertion_flow(input,
                           {.max_rounds = kMaxInsertions,
                            .exhausted_reason = "insertion budget exhausted",
                            .deadline = solve.deadline,
                            .check_consistency = false,
                            .derive_logic = opts.derive_logic,
                            .minimize = opts.minimize},
                           round, &result);
  return result;
}

LavagnoResult lavagno_synthesis(const stg::Stg& stg, const LavagnoOptions& opts) {
  return lavagno_synthesis(sg::StateGraph::from_stg(stg), opts);
}

}  // namespace mps::baseline
