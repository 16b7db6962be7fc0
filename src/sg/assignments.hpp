// Four-valued state-signal assignments (§2.1): each state of a state graph
// is assigned, per inserted state signal, one of {0, 1, Up, Down}.
//   0 / 1 : the signal is stable at that value in the state.
//   Up    : the signal is 0 but excited to rise (n+ enabled) — the state
//           splits into a 0-phase and a 1-phase on expansion.
//   Down  : the signal is 1 but excited to fall.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sg/state_graph.hpp"

namespace mps::sg {

enum class V4 : std::uint8_t { Zero = 0, One = 1, Up = 2, Down = 3 };

const char* to_string(V4 v);

/// The current (pre-switch) binary value of the signal in a state with
/// assignment v: Zero/Up -> 0, One/Down -> 1.
inline bool phase_of(V4 v) { return v == V4::One || v == V4::Down; }

/// True if a pair of code-equal states is *separated* by a signal with these
/// values: only stable complementary values separate, because Up/Down states
/// split on expansion and keep one phase code-equal to the other state
/// (DESIGN.md "Reading notes").
inline bool separates(V4 a, V4 b) {
  return (a == V4::Zero && b == V4::One) || (a == V4::One && b == V4::Zero);
}

/// Figure 3: may two states with values (from, to), connected by an ε edge
/// in that direction, be merged?  Allowed: the four equal pairs plus
/// (0,Up), (Up,1), (1,Down), (Down,0).
bool merge_pair_allowed(V4 from, V4 to);

/// The same relation, used as the edge-coherence constraint of the SAT
/// encoding: values of a state signal across *any* state-graph edge must
/// form an allowed pair (this subsumes consistency and the semi-modularity
/// of the inserted signal: (Up,0) — excitation lost without firing — is
/// forbidden).
inline bool edge_pair_allowed(V4 from, V4 to) { return merge_pair_allowed(from, to); }

/// Expansion arrival rule: entering a state with target value `v`, the
/// inserted signal's phase bit must satisfy this predicate.
inline bool entry_phase_ok(V4 v, bool phase) {
  switch (v) {
    case V4::Zero: return !phase;
    case V4::One: return phase;
    case V4::Up:
    case V4::Down: return true;
  }
  return false;
}

/// A set of inserted state signals with per-state four-valued assignments,
/// indexed against one specific StateGraph (same state count).
class Assignments {
 public:
  Assignments() = default;
  explicit Assignments(std::size_t num_states) : num_states_(num_states) {}

  std::size_t num_states() const { return num_states_; }
  std::size_t num_signals() const { return signals_.size(); }
  bool empty() const { return signals_.empty(); }

  /// Add a signal with all-Zero values; returns its index.
  std::size_t add_signal(std::string name);
  /// Add a signal with explicit values (size must equal num_states()).
  std::size_t add_signal(std::string name, std::vector<V4> values);

  const std::string& name(std::size_t k) const { return signals_[k].name; }
  V4 value(std::size_t k, StateId s) const { return signals_[k].values[s]; }
  void set(std::size_t k, StateId s, V4 v) { signals_[k].values[s] = v; }
  const std::vector<V4>& values(std::size_t k) const { return signals_[k].values; }

  /// True if some signal separates the pair (stable complementary values).
  bool separates_pair(StateId a, StateId b) const;

  /// Every edge of `g` must carry an allowed value pair for every signal.
  /// Returns the first offending (signal, from, to) or nullopt if coherent.
  struct Incoherence {
    std::size_t signal;
    StateId from, to;
  };
  std::optional<Incoherence> check_coherence(const StateGraph& g) const;

  /// A copy containing only the signals whose indices are in `keep`.
  Assignments subset(const std::vector<std::size_t>& keep) const;

 private:
  struct StateSignal {
    std::string name;
    std::vector<V4> values;
  };
  std::size_t num_states_ = 0;
  std::vector<StateSignal> signals_;
};

}  // namespace mps::sg
