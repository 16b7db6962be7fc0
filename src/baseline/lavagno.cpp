#include "baseline/lavagno.hpp"

#include <algorithm>
#include <unordered_map>

#include "encoding/csc_sat.hpp"
#include "sat/local_search.hpp"
#include "sat/solver.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "sg/projection.hpp"
#include "util/common.hpp"

namespace mps::baseline {

namespace {

/// The conflicts of the code class with the most conflicts (the "worst"
/// class), plus a single fallback pair.
std::vector<std::pair<sg::StateId, sg::StateId>> worst_class_conflicts(
    const sg::StateGraph& g, const std::vector<std::pair<sg::StateId, sg::StateId>>& conflicts) {
  std::unordered_map<util::BitVec, std::vector<std::pair<sg::StateId, sg::StateId>>,
                     util::BitVecHash>
      by_code;
  for (const auto& pair : conflicts) by_code[g.code(pair.first)].push_back(pair);
  std::vector<std::pair<sg::StateId, sg::StateId>> best;
  for (auto& [code, pairs] : by_code) {
    if (pairs.size() > best.size() ||
        (pairs.size() == best.size() && !best.empty() && pairs.front() < best.front())) {
      best = pairs;
    }
  }
  std::sort(best.begin(), best.end());
  return best;
}

}  // namespace

LavagnoResult lavagno_synthesis(const sg::StateGraph& input, const LavagnoOptions& opts) {
  util::Timer timer;
  LavagnoResult result;

  sg::StateGraph g = sg::contract_silent(input);
  result.initial_states = g.num_states();
  result.initial_signals = g.num_signals();

  for (int iter = 0; iter < opts.max_insertions; ++iter) {
    if (sat::deadline_passed(opts.solve.deadline)) {
      result.hit_limit = true;
      result.failure_reason = "deadline exceeded";
      break;
    }
    if (opts.time_limit_s > 0 && timer.seconds() > opts.time_limit_s) {
      result.hit_limit = true;
      result.failure_reason = "time limit";
      break;
    }
    const auto analysis = sg::analyze_csc(g);
    if (analysis.satisfied()) break;

    // Resolve one code class per iteration, escalating the signal count for
    // that class until its conflicts are separable — whole-graph encodings
    // throughout, never any decomposition.
    const auto class_conflicts = worst_class_conflicts(g, analysis.conflicts);
    sg::Assignments assigns(g.num_states());
    bool solved = false;
    for (std::size_t m = 1; m <= opts.max_signals_per_class && !solved; ++m) {
      const encoding::Encoding enc(g, m, class_conflicts, analysis.compatible_pairs,
                                   opts.encode);
      sat::Model model;
      sat::SolveStats sstats;
      sat::Outcome outcome = sat::Outcome::Unsat;
      if (sat::walksat(enc.cnf(), &model, nullptr,
                       {/*seed=*/m, /*max_flips=*/50000, /*max_tries=*/2, /*noise=*/0.5})) {
        outcome = sat::Outcome::Sat;
      } else {
        outcome = sat::Solver().solve(enc.cnf(), &model, &sstats, opts.solve);
        result.solver_totals.add(sstats);
      }
      if (outcome == sat::Outcome::Limit) {
        result.hit_limit = true;  // keep escalating m; note the limit
        continue;
      }
      if (outcome == sat::Outcome::Sat) {
        core::decode_varying(enc, model, "x" + std::to_string(g.num_signals()) + "_",
                             &assigns);
        solved = !assigns.empty();
      }
    }
    if (!solved) {
      if (result.failure_reason.empty()) {
        result.failure_reason = result.hit_limit
                                    ? "SAT limit during class insertion"
                                    : "target class not separable within the signal bound";
      }
      break;
    }
    // Per-insertion re-expansion is this baseline's inner loop: skip the
    // O(V·E) structural re-check, the expansion itself enforces the
    // invariants.
    g = sg::expand(g, assigns, /*check_consistency=*/false).graph;
    result.insertions += static_cast<int>(assigns.num_signals());
  }

  result.success = result.failure_reason.empty() && sg::analyze_csc(g).satisfied();
  if (result.success) result.hit_limit = false;  // transient per-attempt limits recovered
  if (!result.success && result.failure_reason.empty()) {
    result.failure_reason = "insertion budget exhausted";
    result.hit_limit = true;
  }
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

LavagnoResult lavagno_synthesis(const stg::Stg& stg, const LavagnoOptions& opts) {
  return lavagno_synthesis(sg::StateGraph::from_stg(stg), opts);
}

}  // namespace mps::baseline
