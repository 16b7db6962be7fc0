// modular_synthesis (Figure 6): the paper's complete flow.
//
//   derive Σ from the STG
//   for each output o:  determine_input_set → partition_sat → propagate
//   expand Σ with the inserted signals, re-check CSC (outer safety loop),
//   derive and minimize the next-state logic of every non-input signal.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/input_set.hpp"
#include "core/partition_sat.hpp"
#include "logic/cover.hpp"
#include "logic/minimize.hpp"
#include "sg/expand.hpp"
#include "stg/stg.hpp"

namespace mps::core {

struct SynthesisOptions {
  /// Unused by the flow; kept only because `perfbench/` passes it.
  InputSetOptions input_set;
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
  /// Absolute wall-clock cutoff for the whole synthesis (svc:: per-request
  /// deadlines map here); default-constructed = none.  Every module solve
  /// gets it, and a round that would start past it fails fast with
  /// "deadline exceeded".  A deadline that fires makes results
  /// timing-dependent.
  std::chrono::steady_clock::time_point deadline{};
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

struct SynthesisResult {
  bool success = false;
  std::string failure_reason;

  std::size_t initial_states = 0;
  std::size_t initial_signals = 0;
  std::size_t final_states = 0;
  std::size_t final_signals = 0;

  /// The expanded, CSC-satisfying state graph.
  sg::StateGraph final_graph;

  /// Minimized covers per non-input signal of the final graph.
  std::vector<std::pair<std::string, logic::Cover>> covers;
  std::size_t total_literals = 0;

  std::vector<ModuleReport> modules;
  int rounds = 0;
  double seconds = 0.0;
  /// Search effort summed over every module formula plus the rescue path.
  sat::SolverTotals solver_totals;
};

/// Run the modular partitioning synthesis on a state graph.
SynthesisResult modular_synthesis(const sg::StateGraph& g, const SynthesisOptions& opts = {});

/// Convenience: build the state graph from an STG first.
SynthesisResult modular_synthesis(const stg::Stg& stg, const SynthesisOptions& opts = {});

/// Shared by the baselines: derive + minimize the logic of every non-input
/// signal of a CSC-satisfying graph; returns total literal count.
std::size_t derive_all_logic(const sg::StateGraph& g, const logic::MinimizeOptions& opts,
                             std::vector<std::pair<std::string, logic::Cover>>* covers);

}  // namespace mps::core
