#include "sg/expand.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/common.hpp"

namespace mps::sg {

namespace {

/// Key of an expanded state: (original state, phase bits of the inserted
/// signals packed into a word).  Up to 64 inserted signals — far beyond
/// anything synthesis produces.
struct Key {
  StateId state;
  std::uint64_t phases;
  bool operator==(const Key&) const = default;
};
struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(util::hash_combine(k.state, k.phases));
  }
};

}  // namespace

Expansion expand(const StateGraph& g, const Assignments& assigns, bool check_consistency) {
  obs::Span span("sg.expand");
  MPS_ASSERT(assigns.num_states() == g.num_states() || assigns.empty());
  MPS_ASSERT(assigns.num_signals() <= 64);
  if (const auto bad = assigns.check_coherence(g); bad.has_value()) {
    throw util::SemanticsError(
        "cannot expand: state-signal '" + assigns.name(bad->signal) +
        "' has incoherent values across edge " + std::to_string(bad->from) + " -> " +
        std::to_string(bad->to));
  }

  const std::size_t m = assigns.num_signals();

  std::vector<SignalInfo> infos = g.signals();
  const SignalId base = static_cast<SignalId>(infos.size());
  for (std::size_t k = 0; k < m; ++k) {
    infos.push_back(SignalInfo{assigns.name(k), /*is_input=*/false});
  }

  Expansion result;
  result.graph = StateGraph(std::move(infos));

  auto make_code = [&](StateId orig, std::uint64_t phases) {
    util::BitVec code = g.code(orig);
    code.resize(g.num_signals() + m);
    for (std::size_t k = 0; k < m; ++k) {
      code.set(base + k, (phases >> k) & 1);
    }
    return code;
  };

  std::unordered_map<Key, StateId, KeyHash> index;
  auto intern = [&](StateId orig, std::uint64_t phases) {
    const Key key{orig, phases};
    if (const auto it = index.find(key); it != index.end()) return it->second;
    const StateId id = result.graph.add_state(make_code(orig, phases));
    result.origin.push_back(orig);
    index.emplace(key, id);
    return id;
  };

  std::uint64_t init_phases = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (phase_of(assigns.value(k, g.initial()))) init_phases |= std::uint64_t{1} << k;
  }
  const StateId init = intern(g.initial(), init_phases);
  result.graph.set_initial(init);

  std::deque<StateId> frontier{init};
  while (!frontier.empty()) {
    const StateId cur = frontier.front();
    frontier.pop_front();
    const StateId orig = result.origin[cur];
    const std::uint64_t phases = [&] {
      std::uint64_t p = 0;
      for (std::size_t k = 0; k < m; ++k) {
        if (result.graph.code(cur).test(base + k)) p |= std::uint64_t{1} << k;
      }
      return p;
    }();

    const std::size_t before = result.graph.num_states();
    // Inserted-signal transitions.
    for (std::size_t k = 0; k < m; ++k) {
      const V4 v = assigns.value(k, orig);
      const bool phase = (phases >> k) & 1;
      if (v == V4::Up && !phase) {
        const StateId to = intern(orig, phases | (std::uint64_t{1} << k));
        result.graph.add_edge(cur, Edge{static_cast<SignalId>(base + k), true, to});
      } else if (v == V4::Down && phase) {
        const StateId to = intern(orig, phases & ~(std::uint64_t{1} << k));
        result.graph.add_edge(cur, Edge{static_cast<SignalId>(base + k), false, to});
      }
    }
    // Original transitions, gated by the arrival rule.
    for (const Edge& e : g.out(orig)) {
      bool ok = true;
      for (std::size_t k = 0; k < m && ok; ++k) {
        ok = entry_phase_ok(assigns.value(k, e.to), (phases >> k) & 1);
      }
      if (!ok) continue;
      const StateId to = intern(e.to, phases);
      result.graph.add_edge(cur, Edge{e.sig, e.rise, to});
    }
    for (StateId s = static_cast<StateId>(before); s < result.graph.num_states(); ++s) {
      frontier.push_back(s);
    }
  }

  if (check_consistency) result.graph.check_consistency();
  span.arg("states", static_cast<std::int64_t>(result.graph.num_states()));
  return result;
}

std::vector<std::pair<StateId, SignalId>> semi_modularity_violations(const StateGraph& g,
                                                                     bool allow_input_choice) {
  std::vector<std::pair<StateId, SignalId>> bad;
  for (StateId s = 0; s < g.num_states(); ++s) {
    for (const Edge& fired : g.out(s)) {
      if (fired.is_silent()) continue;
      // Every other signal enabled at s must still be enabled (same
      // direction) in fired.to.
      for (const Edge& other : g.out(s)) {
        if (other.is_silent() || other.sig == fired.sig) continue;
        if (allow_input_choice && g.is_input(other.sig) && g.is_input(fired.sig)) continue;
        if (!g.excited_dir(fired.to, other.sig, other.rise)) {
          bad.emplace_back(fired.to, other.sig);
        }
      }
    }
  }
  std::sort(bad.begin(), bad.end());
  bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
  return bad;
}

}  // namespace mps::sg
