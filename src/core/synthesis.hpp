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
  /// Wall-clock budget per synthesis round, shared by all module solves of
  /// the round as a common deadline; <=0 = unlimited.  A module whose solve
  /// is cut off by the deadline behaves exactly like one that hit its
  /// backtrack cap (the rescue path / next round picks up the slack), but
  /// note that a deadline that fires makes results timing-dependent.
  double round_time_limit_s = 0.0;
  /// Absolute wall-clock cutoff for the whole synthesis (svc:: per-request
  /// deadlines map here); default-constructed = none.  Combines with
  /// round_time_limit_s: every module solve gets the earlier of the two
  /// deadlines, and a round that would start past the cutoff fails fast
  /// with "deadline exceeded".  Like round_time_limit_s, a deadline that
  /// fires makes results timing-dependent.
  std::chrono::steady_clock::time_point deadline{};
};

/// Canonical text encoding of every result-affecting SynthesisOptions field
/// (svc::Cache key material).  Excludes the ignored num_threads and the
/// absolute `deadline` time point — callers that admit per-request
/// deadlines must fold the requested *budget* into their own key, since a
/// deadline that fires changes results.  The relative round_time_limit_s
/// budget is included.  Bump the leading version token when a new
/// result-affecting field is added.
std::string options_fingerprint(const SynthesisOptions& opts);

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
