#include "netlist/verify_si.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/bitvec.hpp"
#include "util/common.hpp"
#include "util/text.hpp"

namespace mps::netlist {

namespace {

/// Packed per-cube test over gathered fanin bits (fanin count <= 64).
struct CubeMask {
  std::uint64_t ones = 0;   ///< fanin bits that must be 1
  std::uint64_t zeros = 0;  ///< fanin bits that must be 0
};

struct GateEval {
  std::vector<CubeMask> cubes;  ///< kSop
  bool constant_one = false;    ///< kSop with a universal cube
};

/// A composed state: spec state plus every wire value.
struct Key {
  sg::StateId q = 0;
  util::BitVec wires;

  bool operator==(const Key& o) const { return q == o.q && wires == o.wires; }
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(util::hash_combine(k.q, k.wires.hash()));
  }
};

class Search {
 public:
  Search(const Netlist& n, const sg::StateGraph& spec, SiResult* result)
      : n_(n), spec_(spec), r_(*result) {}

  bool bind() {
    wire_of_sig_.assign(spec_.num_signals(), kNoWire);
    sig_of_wire_.assign(n_.num_wires(), stg::kNoSignal);
    for (sg::SignalId s = 0; s < spec_.num_signals(); ++s) {
      const WireId w = n_.find_wire(sanitize_name(spec_.signal(s).name));
      if (w == kNoWire) {
        r_.issues.push_back("no wire for spec signal " + spec_.signal(s).name);
        return false;
      }
      const bool want_input = spec_.is_input(s);
      if (want_input != (n_.wire(w).role == WireRole::kInput)) {
        r_.issues.push_back("wire " + n_.wire(w).name + " role disagrees with spec signal " +
                            spec_.signal(s).name);
        return false;
      }
      wire_of_sig_[s] = w;
      sig_of_wire_[w] = s;
    }
    for (sg::StateId st = 0; st < spec_.num_states(); ++st) {
      for (const sg::Edge& e : spec_.out(st)) {
        if (e.is_silent()) {
          r_.issues.push_back("spec contains silent edges; contract them first");
          return false;
        }
      }
    }
    return true;
  }

  void prepare() {
    evals_.resize(n_.num_gates());
    for (std::size_t i = 0; i < n_.num_gates(); ++i) {
      const Gate& g = n_.gate(i);
      if (g.kind != GateKind::kSop) continue;
      MPS_ASSERT(g.fanins.size() <= 64);
      GateEval& ev = evals_[i];
      for (const logic::Cube& c : g.fn.cubes()) {
        CubeMask m;
        for (std::size_t v = 0; v < g.fn.num_vars(); ++v) {
          if (const auto lit = c.literal(v)) {
            (*lit ? m.ones : m.zeros) |= std::uint64_t{1} << v;
          }
        }
        if (m.ones == 0 && m.zeros == 0) ev.constant_one = true;
        ev.cubes.push_back(m);
      }
    }
  }

  bool next_value(std::size_t gate_idx, const util::BitVec& wires) const {
    const Gate& g = n_.gate(gate_idx);
    if (g.kind == GateKind::kC) {
      const bool set = wires.test(g.fanins[0]);
      const bool reset = wires.test(g.fanins[1]);
      // Both active is a normal transient under unbounded delays (the old
      // phase's network may still be stale when the new one rises); the
      // latch holds.  What must not happen — the latch losing an excitation
      // because the opposing network rose first — is caught as a disabling
      // by hazard_ok.
      if (set == reset) return wires.test(g.out);  // hold
      return set;
    }
    const GateEval& ev = evals_[gate_idx];
    if (ev.constant_one) return true;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (wires.test(g.fanins[i])) v |= std::uint64_t{1} << i;
    }
    for (const CubeMask& m : ev.cubes) {
      if ((v & m.ones) == m.ones && (v & m.zeros) == 0) return true;
    }
    return false;
  }

  /// Gates whose next value differs from their output wire.
  util::BitVec excited(const util::BitVec& wires) const {
    util::BitVec e(n_.num_gates());
    for (std::size_t i = 0; i < n_.num_gates(); ++i) {
      if (next_value(i, wires) != wires.test(n_.gate(i).out)) e.set(i);
    }
    return e;
  }

  std::string label_of(WireId w, bool new_value) const {
    return n_.wire(w).name + (new_value ? "+" : "-");
  }

  void fail_with_trace(std::size_t state_idx, const std::string& label) {
    std::vector<std::string> trace;
    if (!label.empty()) trace.push_back(label);
    for (std::size_t i = state_idx; parent_[i].first != Netlist::npos; i = parent_[i].first) {
      trace.push_back(parent_[i].second);
    }
    std::reverse(trace.begin(), trace.end());
    r_.trace = std::move(trace);
  }

  /// Check one transition `from -> to` (label, fired gate or npos for an
  /// environment move) for implementation-introduced disablings.  Returns
  /// false (and fills the result) on a hazard.
  bool hazard_ok(const Key& from, const util::BitVec& from_excited, const Key& to,
                 std::size_t fired, std::size_t from_idx, const std::string& label) {
    const util::BitVec to_excited = excited(to.wires);
    for (std::size_t h = 0; h < n_.num_gates(); ++h) {
      if (h == fired || !from_excited.test(h) || to_excited.test(h)) continue;
      const WireId w = n_.gate(h).out;
      const sg::SignalId o = sig_of_wire_[w];
      if (o != stg::kNoSignal) {
        // Sanctioned iff the spec itself performs this disabling: o was
        // enabled (in the gate's pending direction) at `from.q` and is no
        // longer at `to.q`.
        const bool dir = !from.wires.test(w);
        if (spec_.excited_dir(from.q, o, dir) && !spec_.excited_dir(to.q, o, dir)) continue;
      }
      r_.hazard_free = false;
      r_.issues.push_back(util::format(
          "hazard: gate driving %s excited then disabled by %s (composed state %zu)",
          n_.wire(w).name.c_str(), label.c_str(), from_idx));
      fail_with_trace(from_idx, label);
      return false;
    }
    return true;
  }

  void run() {
    prepare();

    // Initial wires: externals take the spec's initial code; internal
    // nodes relax to a fixpoint of their gate functions (acyclic internal
    // logic settles; anything still excited is explored by the search).
    Key init;
    init.q = spec_.initial();
    init.wires.resize(n_.num_wires());
    for (sg::SignalId s = 0; s < spec_.num_signals(); ++s) {
      init.wires.set(wire_of_sig_[s], spec_.value(init.q, s));
    }
    for (std::size_t pass = 0; pass <= n_.num_gates(); ++pass) {
      bool changed = false;
      for (std::size_t i = 0; i < n_.num_gates(); ++i) {
        const WireId w = n_.gate(i).out;
        if (sig_of_wire_[w] != stg::kNoSignal) continue;  // external: spec-pinned
        const bool v = next_value(i, init.wires);
        if (v != init.wires.test(w)) {
          init.wires.set(w, v);
          changed = true;
        }
      }
      if (!changed) break;
    }

    states_.push_back(init);
    parent_.emplace_back(Netlist::npos, "");
    index_.emplace(init, 0);
    std::deque<std::size_t> frontier{0};

    while (!frontier.empty()) {
      const std::size_t cur = frontier.front();
      frontier.pop_front();
      const Key key = states_[cur];  // copy: states_ may reallocate below
      ++r_.states_explored;

      const util::BitVec exc = excited(key.wires);

      if (exc.count() == 0) {
        for (const sg::Edge& e : spec_.out(key.q)) {
          if (!spec_.is_input(e.sig)) {
            r_.quiescence_ok = false;
            r_.issues.push_back("circuit is quiescent but the spec still requires " +
                                spec_.signal(e.sig).name + (e.rise ? "+" : "-"));
            fail_with_trace(cur, "");
            return;
          }
        }
      }

      // Gate moves first (a non-conforming gate is reported as the root
      // cause, not as a hazard of some environment move explored earlier);
      // every excited gate may fire.
      for (std::size_t gi = exc.find_first(); gi != util::BitVec::npos;
           gi = exc.find_next(gi)) {
        const WireId w = n_.gate(gi).out;
        const bool new_value = !key.wires.test(w);
        const std::string label = label_of(w, new_value);
        const sg::SignalId o = sig_of_wire_[w];
        if (o == stg::kNoSignal) {
          Key next = key;
          next.wires.flip(w);
          if (!hazard_ok(key, exc, next, gi, cur, label)) return;
          if (!enqueue(std::move(next), cur, label, &frontier)) return;
          continue;
        }
        bool matched = false;
        for (const sg::Edge& e : spec_.out(key.q)) {
          if (e.sig != o || e.rise != new_value) continue;
          matched = true;
          Key next = key;
          next.q = e.to;
          next.wires.flip(w);
          if (!hazard_ok(key, exc, next, gi, cur, label)) return;
          if (!enqueue(std::move(next), cur, label, &frontier)) return;
        }
        if (!matched) {
          r_.conforms = false;
          r_.issues.push_back("circuit fires " + label +
                              " which the specification does not enable here");
          fail_with_trace(cur, label);
          return;
        }
      }

      // Environment moves: the spec's input transitions.
      for (const sg::Edge& e : spec_.out(key.q)) {
        if (!spec_.is_input(e.sig)) continue;
        const WireId w = wire_of_sig_[e.sig];
        MPS_ASSERT(key.wires.test(w) == !e.rise);
        Key next = key;
        next.q = e.to;
        next.wires.flip(w);
        const std::string label = label_of(w, e.rise);
        if (!hazard_ok(key, exc, next, Netlist::npos, cur, label)) return;
        if (!enqueue(std::move(next), cur, label, &frontier)) return;
      }
    }
    r_.complete = true;
  }

 private:
  bool enqueue(Key next, std::size_t from, const std::string& label,
               std::deque<std::size_t>* frontier) {
    const auto [it, inserted] = index_.emplace(next, states_.size());
    if (!inserted) return true;
    if (states_.size() >= kSiMaxStates) {
      r_.issues.push_back(util::format("composed state space exceeds the %zu-state budget",
                                       kSiMaxStates));
      return false;  // complete stays false
    }
    states_.push_back(std::move(next));
    parent_.emplace_back(from, label);
    frontier->push_back(states_.size() - 1);
    return true;
  }

  const Netlist& n_;
  const sg::StateGraph& spec_;
  SiResult& r_;

  std::vector<WireId> wire_of_sig_;
  std::vector<sg::SignalId> sig_of_wire_;
  std::vector<GateEval> evals_;

  std::vector<Key> states_;
  std::vector<std::pair<std::size_t, std::string>> parent_;
  std::unordered_map<Key, std::size_t, KeyHash> index_;
};

}  // namespace

SiResult verify_speed_independence(const Netlist& n, const sg::StateGraph& spec) {
  obs::Span span("netlist.verify_si");
  SiResult result;
  n.check();
  Search search(n, spec, &result);
  if (search.bind()) {
    result.bound = result.conforms = result.hazard_free = result.quiescence_ok = true;
    search.run();
  }
  span.arg("composed_states", static_cast<std::int64_t>(result.states_explored));
  return result;
}

}  // namespace mps::netlist
