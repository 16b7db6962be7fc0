// modular_synthesis (Figure 6): the paper's complete flow.
//
//   derive Σ from the STG
//   for each output o:  determine_input_set → partition_sat → propagate
//   expand Σ with the inserted signals, re-check CSC (outer safety loop),
//   derive and minimize the next-state logic of every non-input signal.
//
// The outer loop is run_insertion_flow, shared with the two baselines
// (src/baseline/): the three methods differ only in how a round turns the
// graph's CSC conflicts into state-signal assignments.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/input_set.hpp"
#include "core/partition_sat.hpp"
#include "logic/cover.hpp"
#include "logic/minimize.hpp"
#include "sg/csc.hpp"
#include "sg/expand.hpp"
#include "stg/stg.hpp"
#include "util/common.hpp"

namespace mps::core {

struct SynthesisOptions {
  /// Unused by the flow; kept only because `perfbench/` passes it.
  InputSetOptions input_set;
  /// `sat.solve.deadline` is the run's one deadline (svc:: per-request
  /// deadlines map here): every module solve gets it, and a round that
  /// would start past it fails fast with "deadline exceeded".
  PartitionSatOptions sat;
  logic::MinimizeOptions minimize;
  sg::BuildOptions build;
  /// Integration of local solutions is not optimal (§3.1); residual CSC
  /// conflicts re-enter the loop on the expanded graph, up to this bound.
  int max_rounds = 6;
  /// Derive + minimize logic (disable for timing-only experiments).
  bool derive_logic = true;
  /// Ignored; removed with the next benchmark change.
  unsigned num_threads = 0;
};

/// Per-output record of what the partitioning did (module sizes and the
/// SAT formulas solved — the data behind the paper's mmu0 narrative).
struct ModuleReport {
  std::string output;
  int round = 0;
  std::size_t input_set_size = 0;     ///< |I_S(o)| excluding o
  std::size_t module_states = 0;
  std::size_t module_conflicts = 0;
  std::size_t new_signals = 0;
  std::vector<FormulaStat> formulas;
  /// Wall time of this module's input-set + projection + SAT work.
  double seconds = 0.0;
};

/// The fields every insertion method fills; SynthesisResult and the
/// baselines' DirectResult and LavagnoResult add their own records.
struct FlowResult {
  bool success = false;
  /// The run stopped because a budget tripped: the deadline, a SAT
  /// backtrack or time limit on the deciding formula, or the round or
  /// insertion budget (the paper's "SAT Backtrack Limit" rows).
  bool hit_limit = false;
  std::string failure_reason;

  std::size_t initial_states = 0;
  std::size_t initial_signals = 0;
  std::size_t final_states = 0;
  std::size_t final_signals = 0;

  /// The expanded state graph; CSC-satisfying on success.
  sg::StateGraph final_graph;

  /// Minimized covers per non-input signal of the final graph.
  std::vector<std::pair<std::string, logic::Cover>> covers;
  std::size_t total_literals = 0;

  double seconds = 0.0;
  /// Search effort summed over the run's SAT solves.
  sat::SolverTotals solver_totals;
};

struct SynthesisResult : FlowResult {
  std::vector<ModuleReport> modules;
  int rounds = 0;
};

/// One round of an insertion method: the state-signal assignments that
/// resolve (some of) the conflicts `csc` of `g`, or nullopt to stop the run
/// after recording its `failure_reason` (and `hit_limit` when a budget
/// tripped).  `round` counts from 1.
using RoundPolicy = std::function<std::optional<sg::Assignments>(
    const sg::StateGraph& g, const sg::CscResult& csc, int round)>;

/// The budgets of one run_insertion_flow and how it ends.
struct FlowSettings {
  /// Rounds (Lavagno: insertions) before the run gives up with
  /// `exhausted_reason`, unless a round already recorded a reason.
  int max_rounds = 0;
  std::string exhausted_reason;
  /// Checked before each round: a round that would start past it stops
  /// the run with "deadline exceeded".
  util::Deadline deadline{};
  bool check_consistency = true;  ///< sg::expand's structural re-check
  bool derive_logic = true;
  logic::MinimizeOptions minimize;
};

/// The insertion skeleton the three methods share.  Contracts silent edges
/// and records the initial sizes; then, per round, checks the clocks,
/// analyses CSC, ends when the graph is clean or the round budget is spent,
/// else asks `round` for assignments and expands the graph with them.  The
/// finish sets `success` (no stop and CSC-clean), clears the reason and
/// `hit_limit` on success, names the spent budget on exhaustion, and fills
/// the final sizes, graph, logic and `seconds` of `*result`.
void run_insertion_flow(const sg::StateGraph& input, const FlowSettings& settings,
                        const RoundPolicy& round, FlowResult* result);

/// Run the modular partitioning synthesis on a state graph.
SynthesisResult modular_synthesis(const sg::StateGraph& g, const SynthesisOptions& opts = {});

/// Convenience: build the state graph from an STG first.
SynthesisResult modular_synthesis(const stg::Stg& stg, const SynthesisOptions& opts = {});

/// Derive + minimize the logic of every non-input signal of a
/// CSC-satisfying graph; returns total literal count.
std::size_t derive_all_logic(const sg::StateGraph& g, const logic::MinimizeOptions& opts,
                             std::vector<std::pair<std::string, logic::Cover>>* covers);

}  // namespace mps::core
