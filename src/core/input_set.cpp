#include "core/input_set.hpp"

#include <numeric>

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

InputSetResult determine_input_set(const sg::StateGraph& g, sg::SignalId o,
                                   const sg::Assignments& assigns, const InputSetOptions&) {
  MPS_ASSERT(o < g.num_signals());
  InputSetResult result;
  result.triggers = sg_trigger_signals(g, o);

  // Start: keep o and its immediate input set; everything else is a
  // candidate for hiding.
  util::BitVec hidden(g.num_signals());
  result.kept = util::BitVec(g.num_signals());
  result.kept.set(o);
  for (const sg::SignalId t : result.triggers) result.kept.set(t);

  std::vector<sg::SignalId> pending;
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (!result.kept.test(s)) pending.push_back(s);
  }

  // Baseline conflicts/lower-bound on the unhidden graph.
  const ModuleGraph base = project_module(g, o, hidden, assigns);
  MPS_ASSERT(base.proj.assignments_consistent);
  std::size_t n_csc = base.conflicts.size();
  int lb = base.lower_bound;

  // Greedy hiding (Figure 2 main loop), iterated to a fixed point: a
  // signal rejected early in the pass can become hideable once later
  // signals are gone, so re-try the rejects until nothing changes.
  for (int pass = 0; pass < 4 && !pending.empty(); ++pass) {
    std::vector<sg::SignalId> rejected;
    for (const sg::SignalId s : pending) {
      hidden.set(s);
      const ModuleGraph probed = project_module(g, o, hidden, assigns);
      if (probed.proj.assignments_consistent && probed.conflicts.size() <= n_csc &&
          probed.lower_bound <= lb) {
        n_csc = probed.conflicts.size();
        lb = probed.lower_bound;
      } else {
        hidden.reset(s);  // signal (still) required
        rejected.push_back(s);
      }
    }
    if (rejected.size() == pending.size()) {
      pending = std::move(rejected);
      break;
    }
    pending = std::move(rejected);
  }
  for (const sg::SignalId s : pending) result.kept.set(s);

  // State-signal retention (Figure 2 tail loop): drop each state signal
  // unless dropping it increases the module's conflicts.
  std::vector<std::size_t> kept_ss(assigns.num_signals());
  std::iota(kept_ss.begin(), kept_ss.end(), 0u);
  {
    const ModuleGraph full = project_module(g, o, hidden, assigns.subset(kept_ss));
    MPS_ASSERT(full.proj.assignments_consistent);
    std::size_t current = full.conflicts.size();
    for (std::size_t k = assigns.num_signals(); k-- > 0;) {
      std::vector<std::size_t> without;
      for (const std::size_t x : kept_ss) {
        if (x != k) without.push_back(x);
      }
      const ModuleGraph probed = project_module(g, o, hidden, assigns.subset(without));
      if (probed.proj.assignments_consistent && probed.conflicts.size() <= current) {
        kept_ss = std::move(without);
        current = probed.conflicts.size();
      }
    }
    n_csc = current;
  }
  result.kept_state_signals = std::move(kept_ss);
  result.module_conflicts = n_csc;
  result.module_lower_bound = lb;
  return result;
}

}  // namespace mps::core
