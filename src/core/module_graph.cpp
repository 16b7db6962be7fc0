#include "core/module_graph.hpp"

namespace mps::core {

ModuleGraph build_module(const sg::StateGraph& g, sg::SignalId o, const InputSetResult& input_set,
                         const sg::Assignments& assigns) {
  util::BitVec hidden(g.num_signals(), true);
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (input_set.kept.test(s)) hidden.reset(s);
  }
  const sg::Assignments carried = assigns.subset(input_set.kept_state_signals);
  ModuleGraph module;
  module.proj = sg::hide_signals(g, hidden, carried.empty() ? nullptr : &carried);
  module.focus = stg::kNoSignal;
  if (!module.proj.assignments_consistent) return module;

  module.focus = sg::kept_index(module.proj, o);
  sg::CscResult analysis = analyze_module(module.proj, o, module.proj.assignments);
  module.conflicts = std::move(analysis.conflicts);
  module.compatible_pairs = std::move(analysis.compatible_pairs);
  module.lower_bound = analysis.lower_bound;
  return module;
}

sg::CscResult analyze_module(const sg::Projection& proj, sg::SignalId o,
                             const sg::Assignments& assigns) {
  sg::CscOptions copts;
  copts.focus_signal = sg::kept_index(proj, o);
  return sg::analyze_csc(proj.graph, assigns.empty() ? nullptr : &assigns, copts);
}

}  // namespace mps::core
