#include "core/module_graph.hpp"

#include "sg/csc.hpp"
#include "util/common.hpp"

namespace mps::core {

ModuleGraph build_module(const sg::StateGraph& g, sg::SignalId o, const InputSetResult& input_set,
                         const sg::Assignments& assigns) {
  util::BitVec hidden(g.num_signals(), true);
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (input_set.kept.test(s)) hidden.reset(s);
  }
  return project_module(g, o, hidden, assigns.subset(input_set.kept_state_signals));
}

ModuleGraph project_module(const sg::StateGraph& g, sg::SignalId o, const util::BitVec& hidden,
                           const sg::Assignments& assigns) {
  ModuleGraph module;
  module.proj = sg::hide_signals(g, hidden, assigns.empty() ? nullptr : &assigns);
  module.focus = stg::kNoSignal;
  if (!module.proj.assignments_consistent) return module;

  for (std::size_t i = 0; i < module.proj.kept.size(); ++i) {
    if (module.proj.kept[i] == o) module.focus = static_cast<sg::SignalId>(i);
  }
  MPS_ASSERT(module.focus != stg::kNoSignal);

  sg::CscOptions copts;
  copts.focus_signal = module.focus;
  sg::CscResult analysis = sg::analyze_csc(
      module.proj.graph, module.proj.assignments.empty() ? nullptr : &module.proj.assignments,
      copts);
  module.conflicts = std::move(analysis.conflicts);
  module.compatible_pairs = std::move(analysis.compatible_pairs);
  module.lower_bound = analysis.lower_bound;
  return module;
}

}  // namespace mps::core
