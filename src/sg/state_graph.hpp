// State graphs (§2): the finite automaton of all reachable STG markings,
// with a consistent binary code per state.
//
// A StateGraph is self-contained (it carries its own signal table) because
// synthesis repeatedly derives new graphs — projections, quotients and
// expansions — whose signal sets differ from the source STG's.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "stg/stg.hpp"
#include "util/bitvec.hpp"

namespace mps::petri {
struct ReachabilityResult;
}

namespace mps::sg {

using StateId = std::uint32_t;
using stg::SignalId;
inline constexpr StateId kNoState = 0xFFFFFFFFu;

/// One labelled edge of the state graph: firing a rise/fall of `sig`
/// (or a silent ε step when sig == stg::kNoSignal).
struct Edge {
  SignalId sig = stg::kNoSignal;
  bool rise = false;  ///< meaningless for silent edges
  StateId to = kNoState;

  bool is_silent() const { return sig == stg::kNoSignal; }
  bool operator==(const Edge&) const = default;
};

struct SignalInfo {
  std::string name;
  bool is_input = false;
};

struct BuildOptions {
  std::size_t max_states = 1u << 20;
};

/// One flat layout: state s's code is the ⌈num_signals/64⌉ words
/// code_words(s) of one word array (high bits zero), and its out-row is
/// edges [first[s], first[s + 1]) of one edge array (CSR).  Builders call
/// add_state/add_edge, then seal() once: it sorts the staged edges by
/// source, stably, so each row lists its edges in add_edge order.  out()
/// needs a sealed graph, which takes no more states or edges.  No const
/// member writes, so a sealed graph may be read from several threads.
class StateGraph {
 public:
  StateGraph() = default;
  explicit StateGraph(std::vector<SignalInfo> signals)
      : signals_(std::move(signals)), stride_((signals_.size() + 63) / 64) {
    input_mask_.resize(signals_.size());
    for (SignalId s = 0; s < signals_.size(); ++s) {
      by_name_.try_emplace(signals_[s].name, s);  // the lowest id of a repeated name
      if (signals_[s].is_input) input_mask_.set(s);
    }
  }

  /// Exhaustive reachability + consistent-code inference (§2), followed by
  /// the structural self-check.  Throws util::SemanticsError if the net is
  /// unsafe (a place holds >1 token) or the STG admits no consistent state
  /// assignment (e.g. a+ enabled in a state where a is already 1),
  /// util::LimitError on state explosion beyond opts.max_states.  Dummy/ε
  /// transitions are kept as silent edges; see sg::contract_silent() to
  /// remove them.  State ids and edge order are the token game's.
  static StateGraph from_stg(const stg::Stg& stg, const BuildOptions& opts = {});

  // --- signals ---------------------------------------------------------
  std::size_t num_signals() const { return signals_.size(); }
  const SignalInfo& signal(SignalId s) const { return signals_[s]; }
  const std::vector<SignalInfo>& signals() const { return signals_; }
  bool is_input(SignalId s) const { return signals_[s].is_input; }
  /// Bit s set iff signal s is an input, so hot loops can mask input
  /// signals with one and_not instead of a per-signal scan.
  const util::BitVec& input_mask() const { return input_mask_; }
  SignalId find_signal(std::string_view name) const;

  /// Append a state with `code`: num_signals() bits, or the words of a row.
  StateId add_state(const util::BitVec& code) { return add_state(code.words()); }
  StateId add_state(std::span<const std::uint64_t> code);
  void add_edge(StateId from, const Edge& e) {
    MPS_ASSERT(first_.empty());
    staged_from_.push_back(from);
    edges_.push_back(e);
  }
  void seal();
  void set_initial(StateId s) { initial_ = s; }

  // --- states & edges ---------------------------------------------------
  std::size_t num_states() const { return num_states_; }
  StateId initial() const { return initial_; }

  /// The code row of `s`, for hot loops; code(s) copies it into a BitVec.
  std::span<const std::uint64_t> code_words(StateId s) const {
    return {codes_.data() + s * stride_, stride_};
  }
  util::BitVec code(StateId s) const { return util::BitVec(code_words(s), num_signals()); }
  bool value(StateId s, SignalId sig) const {
    return (codes_[s * stride_ + (sig >> 6)] >> (sig & 63)) & 1u;
  }
  /// Number of signals whose values differ between a and b.
  std::size_t code_distance(StateId a, StateId b) const;
  std::span<const Edge> out(StateId s) const {
    MPS_ASSERT(!first_.empty());  // sealed
    return {edges_.data() + first_[s], edges_.data() + first_[s + 1]};
  }

  /// Signals excited in `s` (those with an outgoing rise/fall edge).
  util::BitVec excited(StateId s) const;
  /// True if `sig` has an outgoing edge at `s` with the given direction.
  bool excited_dir(StateId s, SignalId sig, bool rise) const;

  /// Total edge count (diagnostics / formula-size model).
  std::size_t num_edges() const { return edges_.size(); }
  /// Number of (state, unordered transition pair) instances where two
  /// different signals are enabled together — N_ct in the §2.1 size model.
  std::size_t num_concurrent_pairs() const;

  /// Defensive structural check (tests): edges in range, codes consistent
  /// with edge labels, initial in range.
  void check_consistency() const;

 private:
  /// Heterogeneous string hashing so find_signal(string_view) needs no
  /// temporary std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<SignalInfo> signals_;
  /// name -> lowest SignalId with that name (same answer as a front-to-back
  /// linear scan); built by the constructor.
  std::unordered_map<std::string, SignalId, NameHash, std::equal_to<>> by_name_;
  util::BitVec input_mask_;           // bit per signal; see input_mask()
  std::size_t stride_ = 0;            // code words per state
  std::size_t num_states_ = 0;
  std::vector<std::uint64_t> codes_;  // num_states_ rows of stride_ words
  std::vector<std::uint32_t> first_;  // num_states_ + 1 row offsets once sealed, else empty
  std::vector<Edge> edges_;           // the rows back to back; add_edge order until sealed
  std::vector<StateId> staged_from_;  // source of each staged edge until sealed
  StateId initial_ = 0;
};

/// §2's code classes, the states that share one code.  `order` lists every
/// state id by code in util::BitVec::to_string() order, ties by ascending id;
/// class c is order[begin[c] .. begin[c + 1]), so classes are numbered in
/// code order and list their members ascending.  class_of[s] is s's class.
struct CodeClasses {
  std::vector<StateId> order;
  std::vector<std::uint32_t> begin;     ///< num_classes() + 1 offsets into order
  std::vector<std::uint32_t> class_of;  ///< per state
  std::size_t num_classes() const { return begin.size() - 1; }
  std::span<const StateId> members(std::size_t c) const {
    return {order.data() + begin[c], order.data() + begin[c + 1]};
  }
};

/// The library's one code index, built by one sort of the state ids.
CodeClasses code_classes(const StateGraph& g);

/// Consistent state assignment inference (§2), exposed for tests and
/// microbenchmarks: per-state signal values over the reachability graph, in
/// one pass over its edges: from_stg()'s code rows, marking m's being words
/// [m * W, (m + 1) * W), W = ⌈#non-dummy signals/64⌉, one column per
/// non-dummy signal in id order.  Throws util::SemanticsError if no
/// consistent assignment exists.  from_stg() is the normal entry point.
std::vector<std::uint64_t> infer_codes(const stg::Stg& stg,
                                       const petri::ReachabilityResult& reach);

}  // namespace mps::sg
