#include "petri/analysis.hpp"

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "util/id_table.hpp"

namespace mps::petri {

bool is_marked_graph(const Net& net) {
  for (PlaceId p = 0; p < net.num_places(); ++p) {
    if (net.place_pre(p).size() != 1 || net.place_post(p).size() != 1) return false;
  }
  return true;
}

bool is_free_choice(const Net& net) {
  // Extended free choice: if two transitions share any fan-in place, their
  // presets must be identical.
  for (PlaceId p = 0; p < net.num_places(); ++p) {
    const auto& post = net.place_post(p);
    if (post.size() <= 1) continue;
    auto preset = [&](TransId t) {
      auto pre = net.trans_pre(t);
      std::sort(pre.begin(), pre.end());
      return pre;
    };
    const auto first = preset(post[0]);
    for (std::size_t i = 1; i < post.size(); ++i) {
      if (preset(post[i]) != first) return false;
    }
  }
  return true;
}

ReachabilityResult reachability(const Net& net, const Marking& m0,
                                const ReachabilityOptions& opts) {
  obs::Span span("petri.reachability");
  const std::size_t np = net.num_places();
  MPS_ASSERT(m0.size() == np);
  ReachabilityResult result;

  // Additive hash: h(M) = sum of key[p] * M[p], so firing t moves any
  // marking's hash by the same delta[t] (unit arc weights).
  util::Rng rng;
  std::vector<std::uint64_t> key(np);
  for (auto& k : key) k = rng.next();
  std::vector<std::uint64_t> delta(net.num_transitions(), 0);
  for (TransId t = 0; t < net.num_transitions(); ++t) {
    for (PlaceId p : net.trans_post(t)) delta[t] += key[p];
    for (PlaceId p : net.trans_pre(t)) delta[t] -= key[p];
  }

  // Marking i lives at tokens[i * np, (i + 1) * np) and hashes to hashes[i].
  std::vector<std::uint8_t> tokens(np);
  std::vector<std::uint64_t> hashes{0};
  for (PlaceId p = 0; p < np; ++p) {
    tokens[p] = m0.tokens(p);
    hashes[0] += key[p] * tokens[p];
    // Safety of the initial marking is checked across all places exactly
    // once; after that, a firing can only add tokens to the fired
    // transition's postset, so the check below is restricted to it.
    if (tokens[p] > opts.max_tokens_per_place) result.safe = false;
  }
  util::IdTable index;
  index.insert(hashes[0], 0);
  const auto finish = [&] {
    result.num_markings = hashes.size();
    span.arg("markings", static_cast<std::int64_t>(result.num_markings));
    span.arg("edges", static_cast<std::int64_t>(result.edges.size()));
    span.arg("complete", result.complete ? 1 : 0);
  };

  std::vector<std::uint8_t> next(np);
  const auto same = [&](std::uint32_t id) {
    return std::memcmp(tokens.data() + id * np, next.data(), np) == 0;
  };
  // Ids are handed out in discovery order, so walking them in order is the
  // breadth-first search: no frontier queue.
  for (std::uint32_t from = 0; from < hashes.size(); ++from) {
    for (TransId t = 0; t < net.num_transitions(); ++t) {
      const std::uint8_t* m = tokens.data() + from * np;  // tokens may have grown
      const auto& pre = net.trans_pre(t);
      if (!std::all_of(pre.begin(), pre.end(), [&](PlaceId p) { return m[p] != 0; })) continue;
      std::memcpy(next.data(), m, np);
      for (PlaceId p : pre) {
        MPS_ASSERT(next[p] > 0);
        --next[p];
      }
      for (PlaceId p : net.trans_post(t)) {
        if (next[p] == 255) throw util::SemanticsError("marking overflow: place token count > 255");
        if (++next[p] > opts.max_tokens_per_place) result.safe = false;
      }
      const std::uint64_t h = hashes[from] + delta[t];
      if (const std::uint32_t to = index.find(h, same); to != util::IdTable::kNone) {
        result.edges.push_back({from, t, to});
        continue;
      }
      if (hashes.size() >= opts.max_markings) {
        result.complete = false;
        finish();
        return result;
      }
      const std::uint32_t id = static_cast<std::uint32_t>(hashes.size());
      tokens.insert(tokens.end(), next.begin(), next.end());
      hashes.push_back(h);
      index.insert(h, id);
      result.edges.push_back({from, t, id});
    }
  }
  finish();
  return result;
}

namespace {

/// Kosaraju-style SCC count via two BFS passes (graphs here are small).
std::size_t count_sccs(std::size_t n, const std::vector<ReachabilityResult::Edge>& edges) {
  if (n == 0) return 0;
  std::vector<std::vector<std::uint32_t>> fwd(n), rev(n);
  for (const auto& e : edges) {
    fwd[e.from].push_back(e.to);
    rev[e.to].push_back(e.from);
  }
  // Iterative DFS finish order.
  std::vector<int> state(n, 0);  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::uint32_t> order;
  order.reserve(n);
  for (std::uint32_t start = 0; start < n; ++start) {
    if (state[start] != 0) continue;
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{{start, 0}};
    state[start] = 1;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      if (i < fwd[v].size()) {
        const std::uint32_t w = fwd[v][i++];
        if (state[w] == 0) {
          state[w] = 1;
          stack.emplace_back(w, 0);
        }
      } else {
        state[v] = 2;
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  // Reverse pass in decreasing finish order.
  std::vector<bool> seen(n, false);
  std::size_t sccs = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (seen[*it]) continue;
    ++sccs;
    std::vector<std::uint32_t> stack{*it};
    seen[*it] = true;
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      for (std::uint32_t w : rev[v]) {
        if (!seen[w]) {
          seen[w] = true;
          stack.push_back(w);
        }
      }
    }
  }
  return sccs;
}

}  // namespace

bool is_strongly_connected(const ReachabilityResult& reach) {
  return count_sccs(reach.num_markings, reach.edges) == 1;
}

bool is_live(const Net& net, const ReachabilityResult& reach) {
  if (!reach.complete) return false;
  std::vector<bool> fires(net.num_transitions(), false);
  for (const auto& e : reach.edges) fires[e.trans] = true;
  if (std::find(fires.begin(), fires.end(), false) != fires.end()) return false;
  // For cyclic specifications: single SCC + every transition firing somewhere
  // implies every transition remains fireable from everywhere.
  return is_strongly_connected(reach);
}

}  // namespace mps::petri
