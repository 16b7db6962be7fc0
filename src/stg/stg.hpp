// Signal transition graphs (STGs).
//
// An STG interprets the transitions of a Petri net as rising (a+) / falling
// (a-) edges of circuit signals (§2).  Signals are partitioned into inputs
// (driven by the environment) and non-inputs (outputs and internal signals,
// to be implemented by the synthesized circuit).  Dummy (ε) transitions are
// supported: they fire without changing any signal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "petri/net.hpp"

namespace mps::stg {

using SignalId = std::uint32_t;
inline constexpr SignalId kNoSignal = 0xFFFFFFFFu;

enum class Polarity : std::uint8_t {
  Rise,    ///< a+
  Fall,    ///< a-
  Toggle,  ///< a~  (either direction; direction resolved by the state graph)
  Silent,  ///< ε / dummy transition
};

enum class SignalKind : std::uint8_t {
  Input,     ///< driven by the environment
  Output,    ///< circuit output, visible to the environment
  Internal,  ///< circuit-internal (state signals inserted by synthesis are Internal)
  Dummy,     ///< carries no signal; its "transitions" are ε
};

/// The STG label of one net transition.
struct Label {
  SignalId sig = kNoSignal;
  Polarity pol = Polarity::Silent;

  bool is_silent() const { return pol == Polarity::Silent; }
  bool operator==(const Label&) const = default;
};

/// Render "a+", "b-", "c~" or "eps".
std::string label_to_string(const Label& label, const class Stg& stg);

class Stg {
 public:
  explicit Stg(std::string name = "stg") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- signals ---------------------------------------------------------
  SignalId add_signal(std::string name, SignalKind kind);
  std::size_t num_signals() const { return signals_.size(); }
  const std::string& signal_name(SignalId s) const { return signals_[s].name; }
  SignalKind signal_kind(SignalId s) const { return signals_[s].kind; }
  bool is_input(SignalId s) const { return signals_[s].kind == SignalKind::Input; }
  /// Non-input = output or internal (§2: S_NI).
  bool is_non_input(SignalId s) const {
    return signals_[s].kind == SignalKind::Output || signals_[s].kind == SignalKind::Internal;
  }
  /// Lookup by name; returns kNoSignal if absent.
  SignalId find_signal(std::string_view name) const;

  // --- transitions ------------------------------------------------------
  /// Add a labelled net transition.  `instance` distinguishes repeated
  /// transitions of the same signal edge (a+/1, a+/2 in .g syntax).
  petri::TransId add_transition(const Label& label, int instance = 0);
  const Label& label(petri::TransId t) const { return labels_[t]; }
  int instance(petri::TransId t) const { return instances_[t]; }
  /// All transitions labelled with signal `s` (any polarity).
  std::vector<petri::TransId> transitions_of(SignalId s) const;
  /// "a+/1"-style name.
  std::string transition_name(petri::TransId t) const;
  /// Find by signal/polarity/instance; nullopt if absent.
  std::optional<petri::TransId> find_transition(SignalId s, Polarity pol, int instance = 0) const;

  // --- net & marking ----------------------------------------------------
  petri::Net& net() { return net_; }
  const petri::Net& net() const { return net_; }
  const petri::Marking& initial_marking() const { return initial_; }
  void set_initial_marking(petri::Marking m) { initial_ = std::move(m); }

  /// Optional explicitly declared initial signal values ("name=0/1"); when a
  /// signal's value cannot be inferred from the behaviour (it never toggles,
  /// or the graph is acyclic), the state-graph builder consults this.
  void set_initial_value(SignalId s, bool value);
  std::optional<bool> initial_value(SignalId s) const;

  // --- structural queries -----------------------------------------------
  /// Immediate (trigger) input set of signal `o` (§3.2): signals with a
  /// direct causal arc  u* --(place)--> o*  in the STG.
  std::vector<SignalId> trigger_signals(SignalId o) const;

  /// Throws util::SemanticsError if: a signal has no transitions, a marked
  /// place count mismatch, or a transition references a dead signal slot.
  void validate() const;

 private:
  struct Signal {
    std::string name;
    SignalKind kind;
    std::optional<bool> initial_value;
  };

  std::string name_;
  petri::Net net_;
  std::vector<Label> labels_;     // per TransId
  std::vector<int> instances_;    // per TransId
  std::vector<Signal> signals_;
  petri::Marking initial_;
};

}  // namespace mps::stg
