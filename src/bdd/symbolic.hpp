// Symbolic (BDD) reachability and CSC analysis of signal transition graphs
// — the engine that takes the state-space analyses past the explicit
// token-game's enumeration ceiling (largest Table-1 state graph: 2,210
// states; this engine handles the generated pipeline family at 10⁵–10⁷).
//
// Design (DESIGN.md §12):
//
//   * State vector = (places, signal values).  A safe net's marking is one
//     bit per place; the STG's consistent code is one bit per non-dummy
//     signal.  Each state bit b gets an interleaved current/next variable
//     pair (2·pos(b), 2·pos(b)+1) in the shared Manager order.
//
//   * Variable order: state bits are sorted by structural position — a
//     place by its id (creation order follows the net's structure), a
//     signal right next to the first fan-in place of its transitions — so
//     pipeline-like specifications keep interacting bits adjacent.
//
//   * Partitioned transition relation: one conjunct per STG transition
//     (Mishchenko et al., partitioned representations; the natural
//     *disjunctive* partitioning of interleaving semantics).  A partition
//     only constrains the bits its transition touches; untouched bits have
//     no frame conjuncts at all — the image step quantifies exactly the
//     touched current variables (the early-quantification schedule) and
//     renames the touched next variables back, leaving the rest alone:
//
//       Img_t(S) = rename_next→current(∃ touched(t). S ∧ T_t)
//       Img(S)   = ∨_t Img_t(S)
//
//   * Chained fixed point (Roig, Cortadella & Pastor): a sweep fires the
//     parts one after another in transition-id order, each into the reached
//     set the parts before it have already grown, so one sweep covers many
//     BFS layers; the first sweep images the initial state, each later one
//     the states the previous sweep discovered, and a sweep that discovers
//     nothing ends it.  Mark-and-sweep GC may run after any part once the
//     node table crosses a threshold.
//
//   * CSC without enumeration: for each non-input signal u the implied
//     next value F_u is a small formula over current variables
//     (F_u = (u ∧ ¬fall-excited) ∨ (¬u ∧ rise-excited)); projecting
//     R ∧ F_u and R ∧ ¬F_u onto the signal variables (one and_exists each)
//     yields the ON/OFF code sets, and CSC holds iff they are disjoint.
//
// Error contract mirrors sg::StateGraph::from_stg: util::SemanticsError
// for unsafe nets and inconsistent state assignments (detected
// symbolically on the reached set), util::LimitError when the node
// budget or the sweep cap is exceeded.
#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "stg/stg.hpp"
#include "util/bitvec.hpp"

namespace mps::bdd {

struct SymbolicOptions {
  /// Manager node budget (util::LimitError beyond it); 0 = unlimited.
  std::size_t max_nodes = 0;
  /// Run mark-and-sweep GC after a part's image once the node table
  /// exceeds this many nodes; 0 disables GC.
  std::size_t gc_node_threshold = 1u << 20;
  /// Cap on chained sweeps over the partitions (util::LimitError beyond
  /// it); 0 = none.
  std::size_t max_iterations = 0;
};

struct CscVerdict {
  bool holds = true;
  /// Non-input signals with at least one coding conflict (STG signal ids).
  std::vector<stg::SignalId> conflicts;
};

/// The compiled symbolic engine for one STG.  Keeps its own copy of the
/// STG (so temporaries are fine to pass); the Manager, the partitioned
/// relation and the reached set live here.
class SymbolicStg {
 public:
  explicit SymbolicStg(stg::Stg stg, const SymbolicOptions& opts = {});

  Manager& manager() { return mgr_; }
  const stg::Stg& stg() const { return stg_; }

  /// Current-state BDD variable of a place / signal bit.
  std::uint32_t place_var(petri::PlaceId p) const { return 2 * bit_pos_place_[p]; }
  std::uint32_t signal_var(stg::SignalId s) const;

  /// The reached set as a BDD over current variables (computed once,
  /// cached).  Runs the symbolic safety and consistency checks on the
  /// result before returning.
  NodeId reachable();
  /// Number of reachable states (= reachable safe markings).
  double num_states();
  /// Chained sweeps the fixed point took, the last one finding nothing new
  /// (valid after reachable()).
  std::size_t num_iterations() const { return iterations_; }

  /// Characteristic function of the reachable *codes*: ∃places. R, over
  /// the current signal variables.
  NodeId code_chi();
  /// True iff `code` (indexed like the explicit state graph's signal
  /// columns: STG order with dummies dropped) is the code of some
  /// reachable state.
  bool code_reachable(const util::BitVec& code);

  /// Symbolic CSC check over every non-input signal.
  CscVerdict check_csc();

  /// The initial code the engine inferred (STG order, dummies dropped) —
  /// exposed for cross-checks against the explicit builder.
  const util::BitVec& initial_code() const { return initial_code_; }

 private:
  /// One partition of the transition relation.
  struct Part {
    petri::TransId trans;
    NodeId rel;   ///< constraint over touched current+next variables
    NodeId cube;  ///< touched *current* variables, as a positive cube
    NodeId pre;   ///< marking-enabledness: fan-in places marked (current vars)
  };

  void assign_variable_order();
  void infer_initial_code();
  void compile();
  void collect_roots(std::vector<NodeId*>* roots);
  void check_safety_and_consistency(NodeId r);
  double count_states(NodeId f);

  stg::Stg stg_;
  SymbolicOptions opts_;
  std::size_t num_bits_ = 0;
  std::vector<std::uint32_t> bit_pos_place_;   // place id -> bit position
  std::vector<std::uint32_t> bit_pos_signal_;  // stg signal id -> bit position (kNoId for dummies)
  util::BitVec initial_code_;                  // dense (non-dummy) signal order
  Manager mgr_;

  bool compiled_ = false;
  std::vector<Part> parts_;
  NodeId s0_ = kFalse;
  NodeId place_cube_ = kTrue;  // all current place variables

  bool reached_ = false;
  NodeId r_ = kFalse;
  std::size_t iterations_ = 0;
  std::size_t gc_trigger_ = 0;
};

}  // namespace mps::bdd
