#include "core/input_set.hpp"

#include <numeric>
#include <optional>

#include "core/module_graph.hpp"
#include "util/common.hpp"

namespace mps::core {

std::vector<sg::SignalId> sg_trigger_signals(const sg::StateGraph& g, sg::SignalId o) {
  std::vector<bool> is_trigger(g.num_signals(), false);
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    const bool excited_before =
        g.excited_dir(s, o, true) || g.excited_dir(s, o, false);
    for (const sg::Edge& e : g.out(s)) {
      if (e.is_silent() || e.sig == o) continue;
      const bool excited_after =
          g.excited_dir(e.to, o, true) || g.excited_dir(e.to, o, false);
      if (excited_after && !excited_before) is_trigger[e.sig] = true;
    }
  }
  std::vector<sg::SignalId> out;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (is_trigger[s]) out.push_back(s);
  }
  return out;
}

namespace {

/// `q` with the original signal `s` hidden as well, its assignments merged
/// by Figure 3's class-level rules; nullopt when those reject the merge.
/// The per-edge rule is the caller's (sg::mergeable_labels on the complete
/// graph).
std::optional<sg::Projection> hide_one(const sg::Projection& q, sg::SignalId s) {
  util::BitVec hide(q.kept.size());
  hide.set(sg::kept_index(q, s));
  sg::Projection next = sg::hide_signals(q.graph, hide);
  for (sg::SignalId& k : next.kept) k = q.kept[k];
  if (!sg::merge_into_classes(q.assignments, next.state_map, &next.assignments)) {
    return std::nullopt;
  }
  return next;
}

}  // namespace

InputSetResult determine_input_set(const sg::StateGraph& g, sg::SignalId o,
                                   const sg::Assignments& assigns, const InputSetOptions&) {
  MPS_ASSERT(o < g.num_signals());
  InputSetResult result;
  result.triggers = sg_trigger_signals(g, o);

  // Start: keep o and its immediate input set; everything else is a
  // candidate for hiding.
  result.kept = util::BitVec(g.num_signals());
  result.kept.set(o);
  for (const sg::SignalId t : result.triggers) result.kept.set(t);

  std::vector<sg::SignalId> pending;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (!result.kept.test(s)) pending.push_back(s);
  }

  // `q` is the quotient by the signals hidden so far, carrying all of
  // `assigns`; it starts as the unhidden graph.  Each probe hides one more
  // signal on `q` instead of re-projecting `g` (hiding composes).  Of
  // Figure 3's rules, the class-level ones are exact on `q`'s merged
  // values; the per-edge one is not (see sg::mergeable_labels), so it is
  // taken once per signal from `g`.
  sg::Projection q =
      sg::hide_signals(g, util::BitVec(g.num_signals()), assigns.empty() ? nullptr : &assigns);
  MPS_ASSERT(q.assignments_consistent);
  const std::vector<bool> mergeable = sg::mergeable_labels(g, assigns);
  const sg::CscResult base = analyze_module(q, o, q.assignments);
  std::size_t n_csc = base.conflicts.size();
  int lb = base.lower_bound;

  // Greedy hiding (Figure 2 main loop), iterated to a fixed point: a
  // signal rejected early in the pass can become hideable once later
  // signals are gone, so re-try the rejects until nothing changes.
  for (int pass = 0; pass < 4 && !pending.empty(); ++pass) {
    std::vector<sg::SignalId> rejected;
    for (const sg::SignalId s : pending) {
      ++result.probes;
      std::optional<sg::Projection> probed;
      if (mergeable[s]) probed = hide_one(q, s);
      if (probed.has_value()) {
        const sg::CscResult csc = analyze_module(*probed, o, probed->assignments);
        if (csc.conflicts.size() <= n_csc && csc.lower_bound <= lb) {
          ++result.accepted;
          n_csc = csc.conflicts.size();
          lb = csc.lower_bound;
          q = std::move(*probed);
          continue;
        }
      }
      rejected.push_back(s);  // signal (still) required
    }
    if (rejected.size() == pending.size()) {
      pending = std::move(rejected);
      break;
    }
    pending = std::move(rejected);
  }
  for (const sg::SignalId s : pending) result.kept.set(s);
  result.module_states = q.graph.num_states();

  // State-signal retention (Figure 2 tail loop): drop each state signal
  // unless dropping it increases the module's conflicts.  Merging is per
  // signal, so a subset of `q`'s consistent assignments is the merge of
  // the same subset: no projection needed.
  std::vector<std::size_t> kept_ss(assigns.num_signals());
  std::iota(kept_ss.begin(), kept_ss.end(), 0u);
  for (std::size_t k = assigns.num_signals(); k-- > 0;) {
    std::vector<std::size_t> without;
    for (const std::size_t x : kept_ss) {
      if (x != k) without.push_back(x);
    }
    const sg::CscResult csc = analyze_module(q, o, q.assignments.subset(without));
    if (csc.conflicts.size() <= n_csc) {
      kept_ss = std::move(without);
      n_csc = csc.conflicts.size();
    }
  }
  result.kept_state_signals = std::move(kept_ss);
  result.module_conflicts = n_csc;
  result.module_lower_bound = lb;
  return result;
}

}  // namespace mps::core
