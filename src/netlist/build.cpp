#include "netlist/build.hpp"

#include <algorithm>
#include <span>

#include "util/common.hpp"

namespace mps::netlist {

namespace {

/// Restrict `cover` (over all graph signals) to its support: returns the
/// support signal list and the same cover re-expressed over it.
std::pair<std::vector<sg::SignalId>, logic::Cover> restrict_to_support(
    const logic::Cover& cover) {
  std::vector<sg::SignalId> support;
  for (std::size_t v = 0; v < cover.num_vars(); ++v) {
    for (const logic::Cube& c : cover.cubes()) {
      if (c.has_literal(v)) {
        support.push_back(static_cast<sg::SignalId>(v));
        break;
      }
    }
  }
  logic::Cover local(support.size());
  for (const logic::Cube& c : cover.cubes()) {
    logic::Cube lc(support.size());
    for (std::size_t i = 0; i < support.size(); ++i) {
      if (const auto lit = c.literal(support[i])) lc.set_literal(i, *lit);
    }
    local.add(lc);
  }
  return {std::move(support), std::move(local)};
}

/// Wire of signal `s`, creating spec wires on first use.
WireId spec_wire(Netlist& n, const sg::StateGraph& g, sg::SignalId s) {
  const WireId w = n.find_wire(sanitize_name(g.signal(s).name));
  MPS_ASSERT(w != kNoWire);
  return w;
}

/// Put `gate`'s fanins into the canonical order (ascending wire name) the
/// Verilog writer/reader round-trip relies on, permuting the SOP to match.
void canonicalize_fanins(const Netlist& n, Gate* gate) {
  std::vector<std::size_t> order(gate->fanins.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return n.wire(gate->fanins[a]).name < n.wire(gate->fanins[b]).name;
  });
  std::vector<WireId> fanins(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) fanins[i] = gate->fanins[order[i]];
  logic::Cover fn(order.size());
  for (const logic::Cube& c : gate->fn.cubes()) {
    logic::Cube nc(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (const auto lit = c.literal(order[i])) nc.set_literal(i, *lit);
    }
    fn.add(nc);
  }
  gate->fanins = std::move(fanins);
  gate->fn = std::move(fn);
}

std::string fresh_name(const Netlist& n, std::string base) {
  while (n.find_wire(base) != kNoWire) base += "_";
  return base;
}

}  // namespace

std::pair<logic::SopSpec, logic::SopSpec> extract_set_reset(const sg::StateGraph& g,
                                                            sg::SignalId s) {
  return extract_set_reset(g, s, sg::code_classes(g));
}

std::pair<logic::SopSpec, logic::SopSpec> extract_set_reset(const sg::StateGraph& g,
                                                            sg::SignalId s,
                                                            const sg::CodeClasses& classes) {
  MPS_ASSERT(!g.is_input(s));
  // 0 = stable, 1 = excited-to-rise, 2 = excited-to-fall; one per code class.
  const auto excitation = [&](sg::StateId st) {
    return g.excited_dir(st, s, /*rise=*/true) ? 1 : g.excited_dir(st, s, /*rise=*/false) ? 2 : 0;
  };
  // Monotonic-cover specs: the set network must hold ER(s+) and may keep
  // covering the quiescent region QR(s+) (stable-1 codes are don't-cares),
  // but must be off everywhere s is 0 and not excited.  Without the QR
  // don't-cares the minimizer keeps a ~s literal, the set wire goes stale
  // after s+ fires, and reset can rise while set is still high — a race
  // the speed-independence verifier rightly rejects.  Dually for reset.
  logic::SopSpec set_spec, reset_spec;
  set_spec.num_vars = reset_spec.num_vars = g.num_signals();
  for (std::size_t c = 0; c < classes.num_classes(); ++c) {
    const std::span<const sg::StateId> states = classes.members(c);
    const int exc = excitation(states.front());
    const util::BitVec& code = g.code(states.front());
    if (std::any_of(states.begin(), states.end(),
                    [&](sg::StateId st) { return excitation(st) != exc; })) {
      throw util::SemanticsError("CSC violation: signal " + g.signal(s).name +
                                 " has conflicting excitation for code " + code.to_string());
    }
    const bool value = code.test(s);
    if (exc == 1) set_spec.on.push_back(code);
    else if (exc == 2 || !value) set_spec.off.push_back(code);
    if (exc == 2) reset_spec.on.push_back(code);
    else if (exc == 1 || value) reset_spec.off.push_back(code);
  }
  return {std::move(set_spec), std::move(reset_spec)};
}

Netlist build_netlist(const sg::StateGraph& g,
                      const std::vector<std::pair<std::string, logic::Cover>>& covers,
                      const BuildNetlistOptions& opts) {
  Netlist n("circuit");
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    const std::string name = sanitize_name(g.signal(s).name);
    if (n.find_wire(name) != kNoWire) {
      throw util::SemanticsError("signal names collide after sanitization: " + name);
    }
    n.add_wire({name, g.is_input(s) ? WireRole::kInput : WireRole::kOutput});
  }

  // The set/reset specs of every latch read the same code index.
  const sg::CodeClasses classes =
      opts.mapping == Mapping::kStandardC ? sg::code_classes(g) : sg::CodeClasses{};
  for (sg::SignalId s = 0; s < g.num_signals(); ++s) {
    if (g.is_input(s)) continue;
    const WireId out = spec_wire(n, g, s);

    if (opts.mapping == Mapping::kComplexGate) {
      const auto it =
          std::find_if(covers.begin(), covers.end(),
                       [&](const auto& e) { return e.first == g.signal(s).name; });
      if (it == covers.end()) {
        throw util::SemanticsError("no cover for signal " + g.signal(s).name);
      }
      if (it->second.num_vars() != g.num_signals()) {
        throw util::SemanticsError("cover of " + g.signal(s).name +
                                   " has wrong variable count");
      }
      auto [support, local] = restrict_to_support(it->second);
      Gate gate;
      gate.kind = GateKind::kSop;
      gate.out = out;
      for (sg::SignalId sup : support) gate.fanins.push_back(spec_wire(n, g, sup));
      gate.fn = std::move(local);
      canonicalize_fanins(n, &gate);
      n.add_gate(std::move(gate));
      continue;
    }

    // kStandardC: set/reset SOP networks feeding a C latch.
    auto [set_spec, reset_spec] = extract_set_reset(g, s, classes);
    const logic::Cover set_cover = logic::minimize(set_spec);
    const logic::Cover reset_cover = logic::minimize(reset_spec);
    WireId sr[2];
    const logic::Cover* fns[2] = {&set_cover, &reset_cover};
    const char* prefix[2] = {"set_", "reset_"};
    for (int k = 0; k < 2; ++k) {
      sr[k] = n.add_wire(
          {fresh_name(n, prefix[k] + sanitize_name(g.signal(s).name)), WireRole::kInternal});
      auto [support, local] = restrict_to_support(*fns[k]);
      Gate gate;
      gate.kind = GateKind::kSop;
      gate.out = sr[k];
      for (sg::SignalId sup : support) gate.fanins.push_back(spec_wire(n, g, sup));
      gate.fn = std::move(local);
      canonicalize_fanins(n, &gate);
      n.add_gate(std::move(gate));
    }
    Gate latch;
    latch.kind = GateKind::kC;
    latch.out = out;
    latch.fanins = {sr[0], sr[1]};
    n.add_gate(std::move(latch));
  }

  n.check();
  return n;
}

}  // namespace mps::netlist
