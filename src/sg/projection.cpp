#include "sg/projection.hpp"

#include <algorithm>
#include <numeric>

#include "util/common.hpp"

namespace mps::sg {

namespace {

/// Plain union-find over state ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

Projection hide_signals(const StateGraph& g, const util::BitVec& hide,
                        const Assignments* assigns) {
  MPS_ASSERT(hide.size() == g.num_signals());

  const std::size_t n = g.num_states();
  UnionFind uf(n);
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : g.out(s)) {
      if (e.is_silent() || hide.test(e.sig)) uf.unite(s, e.to);
    }
  }

  // Number the classes densely, in order of first member.
  Projection proj;
  proj.state_map.assign(n, kNoState);
  std::vector<StateId> class_rep;  // quotient id -> a representative full state
  for (StateId s = 0; s < n; ++s) {
    const StateId root = uf.find(s);
    if (proj.state_map[root] == kNoState) {
      proj.state_map[root] = static_cast<StateId>(class_rep.size());
      class_rep.push_back(root);
    }
    proj.state_map[s] = proj.state_map[root];
  }
  const std::size_t num_classes = class_rep.size();

  // Kept signal table.
  std::vector<SignalId> dense(g.num_signals(), stg::kNoSignal);
  std::vector<SignalInfo> infos;
  for (SignalId sig = 0; sig < g.num_signals(); ++sig) {
    if (hide.test(sig)) continue;
    dense[sig] = static_cast<SignalId>(infos.size());
    infos.push_back(g.signal(sig));
    proj.kept.push_back(sig);
  }

  proj.graph = StateGraph(std::move(infos));
  std::vector<std::uint64_t> row((proj.kept.size() + 63) / 64);
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::ranges::fill(row, 0);
    for (std::size_t i = 0; i < proj.kept.size(); ++i) {
      if (g.value(class_rep[c], proj.kept[i])) row[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
    proj.graph.add_state(row);
  }
  proj.graph.set_initial(proj.state_map[g.initial()]);

  // Kept edges between classes, grouped by source class in state order (a
  // counting sort); a row keeps the first of equal edges (rows are short: a
  // few edges per kept signal).
  const auto is_kept = [&](const Edge& e) { return !e.is_silent() && !hide.test(e.sig); };
  std::vector<std::uint32_t> row_begin(num_classes + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (const Edge& e : g.out(s)) row_begin[proj.state_map[s] + 1] += is_kept(e) ? 1 : 0;
  }
  std::partial_sum(row_begin.begin(), row_begin.end(), row_begin.begin());
  std::vector<Edge> rows(row_begin.back());
  std::vector<std::uint32_t> next(row_begin.begin(), row_begin.end() - 1);
  for (StateId s = 0; s < n; ++s) {
    // All members of a class must agree on kept-signal values.
    const auto a = g.code_words(s), b = g.code_words(class_rep[proj.state_map[s]]);
    for (std::size_t wi = 0; wi < a.size(); ++wi) {
      MPS_ASSERT(((a[wi] ^ b[wi]) & ~hide.words()[wi]) == 0);
    }
    for (const Edge& e : g.out(s)) {
      if (!is_kept(e)) continue;
      const Edge edge{dense[e.sig], e.rise, proj.state_map[e.to]};
      MPS_ASSERT(proj.state_map[s] != edge.to);  // a kept edge changes a kept signal's value
      rows[next[proj.state_map[s]]++] = edge;
    }
  }
  for (StateId c = 0; c < num_classes; ++c) {
    const auto first = rows.begin() + row_begin[c], last = rows.begin() + row_begin[c + 1];
    for (auto it = first; it != last; ++it) {
      if (std::find(first, it, *it) == it) proj.graph.add_edge(c, *it);
    }
  }
  proj.graph.seal();

  proj.assignments = Assignments(num_classes);
  if (assigns != nullptr && !assigns->empty()) {
    const std::vector<bool> mergeable = mergeable_labels(g, *assigns);
    for (SignalId sig = 0; sig < g.num_signals(); ++sig) {
      if (hide.test(sig) && !mergeable[sig]) proj.assignments_consistent = false;
    }
    if (!mergeable.back()) proj.assignments_consistent = false;  // ε edges
    if (!merge_into_classes(*assigns, proj.state_map, &proj.assignments)) {
      proj.assignments_consistent = false;
    }
  }
  return proj;
}

SignalId kept_index(const Projection& proj, SignalId s) {
  const auto it = std::lower_bound(proj.kept.begin(), proj.kept.end(), s);
  MPS_ASSERT(it != proj.kept.end() && *it == s);
  return static_cast<SignalId>(it - proj.kept.begin());
}

std::vector<bool> mergeable_labels(const StateGraph& g, const Assignments& assigns) {
  MPS_ASSERT(assigns.num_states() == g.num_states());
  std::vector<bool> mergeable(g.num_signals() + 1, true);
  for (StateId s = 0; s < g.num_states(); ++s) {
    for (const Edge& e : g.out(s)) {
      const std::size_t label = e.is_silent() ? g.num_signals() : e.sig;
      if (!mergeable[label]) continue;
      for (std::size_t k = 0; k < assigns.num_signals(); ++k) {
        if (!merge_pair_allowed(assigns.value(k, s), assigns.value(k, e.to))) {
          mergeable[label] = false;
          break;
        }
      }
    }
  }
  return mergeable;
}

bool merge_into_classes(const Assignments& assigns, const std::vector<StateId>& state_map,
                        Assignments* merged) {
  MPS_ASSERT(state_map.size() == assigns.num_states());
  const std::size_t num_classes = merged->num_states();
  bool consistent = true;
  for (std::size_t k = 0; k < assigns.num_signals(); ++k) {
    std::vector<V4> values(num_classes, V4::Zero);
    std::vector<bool> has_zero(num_classes, false), has_one(num_classes, false),
        has_up(num_classes, false), has_down(num_classes, false);
    for (StateId s = 0; s < state_map.size(); ++s) {
      const StateId c = state_map[s];
      switch (assigns.value(k, s)) {
        case V4::Zero: has_zero[c] = true; break;
        case V4::One: has_one[c] = true; break;
        case V4::Up: has_up[c] = true; break;
        case V4::Down: has_down[c] = true; break;
      }
    }
    for (std::size_t c = 0; c < num_classes; ++c) {
      if (has_up[c] && has_down[c]) {
        // The signal both rises and falls inside the merged state: no
        // single value exists (the paper's §3.2 Up/Down restriction).
        consistent = false;
        values[c] = has_one[c] ? V4::One : V4::Zero;
      } else if (has_up[c]) {
        values[c] = V4::Up;  // Figure 3 (f), (g): {0,Up}, {Up,1} -> Up
      } else if (has_down[c]) {
        values[c] = V4::Down;  // Figure 3 (h), (i): {1,Down}, {Down,0} -> Down
      } else if (has_zero[c] && has_one[c]) {
        // 0 and 1 in one class with no excitation boundary: inconsistent.
        consistent = false;
        values[c] = V4::Zero;
      } else {
        values[c] = has_one[c] ? V4::One : V4::Zero;
      }
    }
    merged->add_signal(assigns.name(k), std::move(values));
  }
  return consistent;
}

StateGraph contract_silent(const StateGraph& g) {
  const auto has_silent_edge = [&g] {
    for (StateId s = 0; s < g.num_states(); ++s) {
      for (const Edge& e : g.out(s)) {
        if (e.is_silent()) return true;
      }
    }
    return false;
  };
  if (!has_silent_edge()) return g;
  util::BitVec hide(g.num_signals());  // hide nothing; ε edges contract anyway
  return hide_signals(g, hide).graph;
}

}  // namespace mps::sg
