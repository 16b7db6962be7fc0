#include "sg/expand.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/common.hpp"
#include "util/id_table.hpp"

namespace mps::sg {

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

  // An expanded state is (original state, phase bits of the inserted
  // signals packed into a word: up to 64 inserted signals, far beyond
  // anything synthesis produces); the table interns it by that pair.
  std::vector<std::uint64_t> phases_of;  // per expanded state
  util::IdTable index;
  std::vector<std::uint64_t> code((g.num_signals() + m + 63) / 64);
  auto intern = [&](StateId orig, std::uint64_t phases) {
    const std::uint64_t h = util::hash_combine(orig, phases);
    const StateId found = index.find(h, [&](std::uint32_t id) {
      return result.origin[id] == orig && phases_of[id] == phases;
    });
    if (found != util::IdTable::kNone) return found;
    std::ranges::fill(code, 0);
    std::ranges::copy(g.code_words(orig), code.begin());
    for (std::size_t k = 0; k < m; ++k) {
      if ((phases >> k) & 1) code[(base + k) >> 6] |= std::uint64_t{1} << ((base + k) & 63);
    }
    const StateId id = result.graph.add_state(code);
    result.origin.push_back(orig);
    phases_of.push_back(phases);
    index.insert(h, id);
    return id;
  };

  std::uint64_t init_phases = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (phase_of(assigns.value(k, g.initial()))) init_phases |= std::uint64_t{1} << k;
  }
  result.graph.set_initial(intern(g.initial(), init_phases));

  // Ids are handed out in discovery order, so walking them in order is the
  // breadth-first search: no frontier queue.
  for (StateId cur = 0; cur < result.graph.num_states(); ++cur) {
    const StateId orig = result.origin[cur];
    const std::uint64_t phases = phases_of[cur];

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
  }

  result.graph.seal();  // edges were added in source order
  if (check_consistency) result.graph.check_consistency();
  span.arg("states", static_cast<std::int64_t>(result.graph.num_states()));
  return result;
}

std::vector<std::pair<StateId, SignalId>> semi_modularity_violations(const StateGraph& g) {
  std::vector<std::pair<StateId, SignalId>> bad;
  for (StateId s = 0; s < g.num_states(); ++s) {
    for (const Edge& fired : g.out(s)) {
      if (fired.is_silent()) continue;
      // Every other signal enabled at s must still be enabled (same
      // direction) in fired.to.
      for (const Edge& other : g.out(s)) {
        if (other.is_silent() || other.sig == fired.sig) continue;
        if (g.is_input(other.sig) && g.is_input(fired.sig)) continue;
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
