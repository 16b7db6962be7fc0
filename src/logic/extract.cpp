#include "logic/extract.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "util/common.hpp"

namespace mps::logic {

bool implied_value(const sg::StateGraph& g, sg::StateId st, sg::SignalId s) {
  const bool value = g.value(st, s);
  if (value) return !g.excited_dir(st, s, /*rise=*/false);
  return g.excited_dir(st, s, /*rise=*/true);
}

SopSpec extract_next_state(const sg::StateGraph& g, sg::SignalId s) {
  MPS_ASSERT(!g.is_input(s));
  SopSpec spec;
  spec.num_vars = g.num_signals();

  std::unordered_map<util::BitVec, bool, util::BitVecHash> table;
  for (sg::StateId st = 0; st < g.num_states(); ++st) {
    const bool f = implied_value(g, st, s);
    const auto [it, inserted] = table.emplace(g.code(st), f);
    if (!inserted && it->second != f) {
      throw util::SemanticsError("CSC violation: signal " + g.signal(s).name +
                                 " has conflicting implied values for code " +
                                 g.code(st).to_string());
    }
  }
  for (const auto& [code, f] : table) {
    (f ? spec.on : spec.off).push_back(code);
  }
  // Deterministic order (hash maps iterate arbitrarily): the code with a 0
  // at the lowest differing bit first, i.e. to_string() order.
  const auto by_bits = [](const util::BitVec& a, const util::BitVec& b) {
    for (std::size_t w = 0; w < a.num_words(); ++w) {
      const std::uint64_t diff = a.word(w) ^ b.word(w);
      if (diff != 0) return (b.word(w) >> std::countr_zero(diff) & 1u) != 0;
    }
    return false;
  };
  std::sort(spec.on.begin(), spec.on.end(), by_bits);
  std::sort(spec.off.begin(), spec.off.end(), by_bits);
  return spec;
}

}  // namespace mps::logic
