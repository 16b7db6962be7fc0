#include "petri/net.hpp"

#include <algorithm>

namespace mps::petri {

std::string Marking::to_string() const {
  std::string s = "{";
  bool first = true;
  for (std::size_t p = 0; p < tokens_.size(); ++p) {
    for (int k = 0; k < tokens_[p]; ++k) {
      if (!first) s += ", ";
      s += "p" + std::to_string(p);
      first = false;
    }
  }
  s += "}";
  return s;
}

PlaceId Net::add_place(std::string name) {
  places_.push_back(Place{std::move(name), {}, {}});
  return static_cast<PlaceId>(places_.size() - 1);
}

TransId Net::add_transition(std::string name) {
  transitions_.push_back(Transition{std::move(name), {}, {}});
  return static_cast<TransId>(transitions_.size() - 1);
}

void Net::connect_pt(PlaceId p, TransId t) {
  MPS_ASSERT(p < places_.size() && t < transitions_.size());
  places_[p].post.push_back(t);
  transitions_[t].pre.push_back(p);
}

void Net::connect_tp(TransId t, PlaceId p) {
  MPS_ASSERT(p < places_.size() && t < transitions_.size());
  transitions_[t].post.push_back(p);
  places_[p].pre.push_back(t);
}

bool Net::enabled(const Marking& m, TransId t) const {
  MPS_ASSERT(m.size() == places_.size());
  for (PlaceId p : transitions_[t].pre) {
    if (m.tokens(p) == 0) return false;
  }
  return true;
}

std::vector<TransId> Net::enabled_transitions(const Marking& m) const {
  std::vector<TransId> out;
  enabled_transitions(m, &out);
  return out;
}

void Net::enabled_transitions(const Marking& m, std::vector<TransId>* out) const {
  out->clear();
  for (TransId t = 0; t < transitions_.size(); ++t) {
    if (enabled(m, t)) out->push_back(t);
  }
}

Marking Net::fire(const Marking& m, TransId t) const {
  MPS_ASSERT(enabled(m, t));
  Marking next = m;
  for (PlaceId p : transitions_[t].pre) next.remove_token(p);
  for (PlaceId p : transitions_[t].post) next.add_token(p);
  return next;
}

}  // namespace mps::petri
