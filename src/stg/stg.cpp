#include "stg/stg.hpp"

#include <algorithm>

#include "util/common.hpp"

namespace mps::stg {

std::string label_to_string(const Label& label, const Stg& stg) {
  if (label.is_silent()) {
    return label.sig == kNoSignal ? "eps" : stg.signal_name(label.sig);
  }
  const char* suffix = label.pol == Polarity::Rise ? "+" : label.pol == Polarity::Fall ? "-" : "~";
  return stg.signal_name(label.sig) + suffix;
}

SignalId Stg::add_signal(std::string name, SignalKind kind) {
  if (find_signal(name) != kNoSignal) {
    throw util::SemanticsError("duplicate signal name: " + name);
  }
  signals_.push_back(Signal{std::move(name), kind, std::nullopt});
  return static_cast<SignalId>(signals_.size() - 1);
}

SignalId Stg::find_signal(std::string_view name) const {
  for (SignalId s = 0; s < signals_.size(); ++s) {
    if (signals_[s].name == name) return s;
  }
  return kNoSignal;
}

petri::TransId Stg::add_transition(const Label& label, int instance) {
  MPS_ASSERT(label.sig == kNoSignal || label.sig < signals_.size());
  std::string name = "t" + std::to_string(net_.num_transitions());
  const petri::TransId t = net_.add_transition(std::move(name));
  labels_.push_back(label);
  instances_.push_back(instance);
  return t;
}

std::vector<petri::TransId> Stg::transitions_of(SignalId s) const {
  std::vector<petri::TransId> out;
  for (petri::TransId t = 0; t < labels_.size(); ++t) {
    if (labels_[t].sig == s) out.push_back(t);
  }
  return out;
}

std::string Stg::transition_name(petri::TransId t) const {
  std::string base = label_to_string(labels_[t], *this);
  if (instances_[t] != 0) base += "/" + std::to_string(instances_[t]);
  return base;
}

std::optional<petri::TransId> Stg::find_transition(SignalId s, Polarity pol, int instance) const {
  for (petri::TransId t = 0; t < labels_.size(); ++t) {
    if (labels_[t].sig == s && labels_[t].pol == pol && instances_[t] == instance) return t;
  }
  return std::nullopt;
}

void Stg::set_initial_value(SignalId s, bool value) {
  MPS_ASSERT(s < signals_.size());
  signals_[s].initial_value = value;
}

std::optional<bool> Stg::initial_value(SignalId s) const {
  MPS_ASSERT(s < signals_.size());
  return signals_[s].initial_value;
}

std::vector<SignalId> Stg::trigger_signals(SignalId o) const {
  std::vector<SignalId> out;
  for (petri::TransId t = 0; t < labels_.size(); ++t) {
    if (labels_[t].sig != o || labels_[t].is_silent()) continue;
    for (petri::PlaceId p : net_.trans_pre(t)) {
      for (petri::TransId u : net_.place_pre(p)) {
        const SignalId s = labels_[u].sig;
        if (s == kNoSignal || s == o || labels_[u].is_silent()) continue;
        if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Stg::validate() const {
  if (initial_.size() != net_.num_places()) {
    throw util::SemanticsError("initial marking size does not match place count in " + name_);
  }
  std::vector<bool> seen(signals_.size(), false);
  for (petri::TransId t = 0; t < labels_.size(); ++t) {
    const Label& l = labels_[t];
    if (l.sig != kNoSignal) {
      if (l.sig >= signals_.size()) throw util::SemanticsError("transition with bad signal id");
      seen[l.sig] = true;
      if (signals_[l.sig].kind == SignalKind::Dummy && !l.is_silent()) {
        throw util::SemanticsError("dummy signal used with a polarity: " + signals_[l.sig].name);
      }
    }
    if (net_.trans_pre(t).empty()) {
      throw util::SemanticsError("transition without fan-in place: " + transition_name(t));
    }
  }
  for (SignalId s = 0; s < signals_.size(); ++s) {
    if (!seen[s] && signals_[s].kind != SignalKind::Dummy) {
      throw util::SemanticsError("signal never appears in the graph: " + signals_[s].name);
    }
  }
}

}  // namespace mps::stg
