#include "logic/extract.hpp"

#include <algorithm>
#include <span>

#include "util/common.hpp"

namespace mps::logic {

bool implied_value(const sg::StateGraph& g, sg::StateId st, sg::SignalId s) {
  const bool value = g.value(st, s);
  if (value) return !g.excited_dir(st, s, /*rise=*/false);
  return g.excited_dir(st, s, /*rise=*/true);
}

SopSpec extract_next_state(const sg::StateGraph& g, sg::SignalId s) {
  return extract_next_state(g, s, sg::code_classes(g));
}

SopSpec extract_next_state(const sg::StateGraph& g, sg::SignalId s,
                           const sg::CodeClasses& classes) {
  MPS_ASSERT(!g.is_input(s));
  SopSpec spec;
  spec.num_vars = g.num_signals();
  // One minterm per code class, in code order.
  for (std::size_t c = 0; c < classes.num_classes(); ++c) {
    const std::span<const sg::StateId> states = classes.members(c);
    const bool f = implied_value(g, states.front(), s);
    if (std::any_of(states.begin(), states.end(),
                    [&](sg::StateId st) { return implied_value(g, st, s) != f; })) {
      throw util::SemanticsError("CSC violation: signal " + g.signal(s).name +
                                 " has conflicting implied values for code " +
                                 g.code(states.front()).to_string());
    }
    (f ? spec.on : spec.off).push_back(g.code(states.front()));
  }
  return spec;
}

}  // namespace mps::logic
