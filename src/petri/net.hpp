// Petri nets: the underlying formalism of signal transition graphs.
//
// A net is <P, T, F, M0>: places, transitions, a flow relation and an
// initial marking (§2 of the paper).  Nets here are place/transition nets
// with unit arc weights — exactly what STGs need.  Markings are general
// (a place may hold more than one token) so that safety violations in a
// user specification are *detected*, not silently mangled; the reachability
// engine in sg:: caps both the token count per place and the number of
// markings explored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace mps::petri {

using PlaceId = std::uint32_t;
using TransId = std::uint32_t;
inline constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

/// A marking: tokens per place.  Token counts are capped at 255; STG
/// state graphs of interest are safe (0/1 tokens), the slack exists only
/// so unsafe specifications fail loudly in analysis rather than here.
class Marking {
 public:
  Marking() = default;
  explicit Marking(std::size_t num_places) : tokens_(num_places, 0) {}

  std::size_t size() const { return tokens_.size(); }
  std::uint8_t tokens(PlaceId p) const { return tokens_[p]; }

  void add_token(PlaceId p) {
    if (tokens_[p] == 255) throw util::SemanticsError("marking overflow: place token count > 255");
    ++tokens_[p];
  }
  void remove_token(PlaceId p) {
    MPS_ASSERT(tokens_[p] > 0);
    --tokens_[p];
  }

  bool operator==(const Marking& other) const { return tokens_ == other.tokens_; }
  bool operator!=(const Marking& other) const { return !(*this == other); }

  std::uint64_t hash() const {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (auto t : tokens_) h = util::hash_combine(h, t);
    return h;
  }

  /// True if no place holds more than one token.
  bool is_safe() const {
    for (auto t : tokens_)
      if (t > 1) return false;
    return true;
  }

  std::string to_string() const;

 private:
  std::vector<std::uint8_t> tokens_;
};

struct MarkingHash {
  std::size_t operator()(const Marking& m) const { return static_cast<std::size_t>(m.hash()); }
};

/// A place/transition net with unit arc weights.
class Net {
 public:
  PlaceId add_place(std::string name);
  TransId add_transition(std::string name);

  /// Arc place -> transition.
  void connect_pt(PlaceId p, TransId t);
  /// Arc transition -> place.
  void connect_tp(TransId t, PlaceId p);

  std::size_t num_places() const { return places_.size(); }
  std::size_t num_transitions() const { return transitions_.size(); }

  const std::string& place_name(PlaceId p) const { return places_[p].name; }
  const std::string& transition_name(TransId t) const { return transitions_[t].name; }

  const std::vector<TransId>& place_pre(PlaceId p) const { return places_[p].pre; }
  const std::vector<TransId>& place_post(PlaceId p) const { return places_[p].post; }
  const std::vector<PlaceId>& trans_pre(TransId t) const { return transitions_[t].pre; }
  const std::vector<PlaceId>& trans_post(TransId t) const { return transitions_[t].post; }

  /// A transition is enabled when every fan-in place holds a token.
  bool enabled(const Marking& m, TransId t) const;

  /// All enabled transitions in `m`, in id order.
  std::vector<TransId> enabled_transitions(const Marking& m) const;
  /// Allocation-free variant for hot loops: `*out` is cleared and refilled.
  void enabled_transitions(const Marking& m, std::vector<TransId>* out) const;

  /// Fire an enabled transition: M --t--> M'.
  Marking fire(const Marking& m, TransId t) const;

  Marking empty_marking() const { return Marking(places_.size()); }

 private:
  struct Place {
    std::string name;
    std::vector<TransId> pre;   // transitions feeding this place
    std::vector<TransId> post;  // transitions consuming from this place
  };
  struct Transition {
    std::string name;
    std::vector<PlaceId> pre;   // fan-in places
    std::vector<PlaceId> post;  // fan-out places
  };

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
};

}  // namespace mps::petri
