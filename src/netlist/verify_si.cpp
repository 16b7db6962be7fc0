#include "netlist/verify_si.hpp"

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "util/bitvec.hpp"
#include "util/common.hpp"
#include "util/id_table.hpp"
#include "util/text.hpp"

namespace mps::netlist {

namespace {

bool bit(const std::uint64_t* words, std::size_t i) { return (words[i >> 6] >> (i & 63)) & 1u; }

/// Breadth-first search over composed states (spec state × every wire
/// value), stored flat and interned on util::IdTable: state `id` is spec
/// state q_[id] with wire words wires_[id * stride_, (id + 1) * stride_).
/// Ids are handed out in discovery order, so walking them is the BFS.
class Search {
 public:
  Search(const Netlist& n, const sg::StateGraph& spec, SiResult* result)
      : n_(n), spec_(spec), r_(*result), stride_((n.num_wires() + 63) / 64),
        affected_(n.num_wires()), cur_(stride_), next_(stride_), excited_(n.num_gates()) {}

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
    // A move of wire w can change the excitation of w's readers and driver
    // only; each list ascends, as the gates do.  next_value reads an SOP
    // gate's fanins as one code word.
    for (std::size_t i = 0; i < n_.num_gates(); ++i) {
      MPS_ASSERT(n_.gate(i).fanins.size() <= 64);
      for (const WireId f : n_.gate(i).fanins) affected_[f].push_back(i);
      affected_[n_.gate(i).out].push_back(i);
    }
    for (auto& gates : affected_) gates.erase(std::unique(gates.begin(), gates.end()), gates.end());
  }

  bool next_value(std::size_t gate_idx, const std::uint64_t* wires) const {
    const Gate& g = n_.gate(gate_idx);
    if (g.kind == GateKind::kC) {
      const bool set = bit(wires, g.fanins[0]);
      const bool reset = bit(wires, g.fanins[1]);
      // Both active is a normal transient under unbounded delays (the old
      // phase's network may still be stale when the new one rises); the
      // latch holds.  What must not happen — the latch losing an excitation
      // because the opposing network rose first — is caught as a disabling
      // by hazard_ok.
      if (set == reset) return bit(wires, g.out);  // hold
      return set;
    }
    // The fanin values gathered into one code word (see prepare()).
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (bit(wires, g.fanins[i])) v |= std::uint64_t{1} << i;
    }
    return g.fn.covers_code({&v, (g.fanins.size() + 63) / 64});
  }

  /// Whether gate i's next value differs from its output wire.
  bool excited(std::size_t i, const std::uint64_t* wires) const {
    return next_value(i, wires) != bit(wires, n_.gate(i).out);
  }

  std::string label_of(WireId w, bool new_value) const {
    return n_.wire(w).name + (new_value ? "+" : "-");
  }

  /// The moves from the initial state to `state`, then `last` if not empty.
  void fail_with_trace(std::size_t state, const std::string& last) {
    std::vector<std::string> trace;
    if (!last.empty()) trace.push_back(last);
    for (std::size_t i = state; parent_[i].from != util::IdTable::kNone; i = parent_[i].from) {
      trace.push_back(label_of(parent_[i].wire, parent_[i].value));
    }
    std::reverse(trace.begin(), trace.end());
    r_.trace = std::move(trace);
  }

  /// Take the move of wire `w` to `new_value` (by gate `fired`, or npos for
  /// an environment move) from state `cur` = (q_cur_, cur_) to (next_q,
  /// next_): check it for implementation-introduced disablings, then intern
  /// the target.  False (with the result filled) ends the search.
  bool move(sg::StateId next_q, std::size_t fired, std::size_t cur, WireId w, bool new_value) {
    next_ = cur_;
    next_[w >> 6] ^= std::uint64_t{1} << (w & 63);
    for (const std::size_t h : affected_[w]) {
      if (h == fired || !excited_.test(h) || excited(h, next_.data())) continue;
      const WireId hw = n_.gate(h).out;
      const sg::SignalId o = sig_of_wire_[hw];
      if (o != stg::kNoSignal) {
        // Sanctioned iff the spec itself performs this disabling: o was
        // enabled (in the gate's pending direction) at `q_cur_` and is no
        // longer at `next_q`.
        const bool dir = !bit(cur_.data(), hw);
        if (spec_.excited_dir(q_cur_, o, dir) && !spec_.excited_dir(next_q, o, dir)) continue;
      }
      const std::string label = label_of(w, new_value);
      r_.hazard_free = false;
      r_.issues.push_back(util::format(
          "hazard: gate driving %s excited then disabled by %s (composed state %zu)",
          n_.wire(hw).name.c_str(), label.c_str(), cur));
      fail_with_trace(cur, label);
      return false;
    }
    return enqueue(next_q, {static_cast<std::uint32_t>(cur), w, new_value});
  }

  void run() {
    prepare();

    // Initial wires: externals take the spec's initial code; internal
    // nodes relax to a fixpoint of their gate functions (acyclic internal
    // logic settles; anything still excited is explored by the search).
    util::BitVec init(n_.num_wires());
    for (sg::SignalId s = 0; s < spec_.num_signals(); ++s) {
      init.set(wire_of_sig_[s], spec_.value(spec_.initial(), s));
    }
    for (std::size_t pass = 0; pass <= n_.num_gates(); ++pass) {
      bool changed = false;
      for (std::size_t i = 0; i < n_.num_gates(); ++i) {
        const WireId w = n_.gate(i).out;
        if (sig_of_wire_[w] != stg::kNoSignal) continue;  // external: spec-pinned
        const bool v = next_value(i, init.words().data());
        if (v != init.test(w)) {
          init.set(w, v);
          changed = true;
        }
      }
      if (!changed) break;
    }
    std::ranges::copy(init.words(), next_.begin());
    enqueue(spec_.initial(), {util::IdTable::kNone, kNoWire, false});

    for (std::size_t cur = 0; cur < q_.size(); ++cur) {
      // Copies: the store may reallocate as moves are interned.
      q_cur_ = q_[cur];
      std::copy_n(wires_.begin() + cur * stride_, stride_, cur_.begin());
      ++r_.states_explored;
      for (std::size_t i = 0; i < n_.num_gates(); ++i) excited_.set(i, excited(i, cur_.data()));

      if (excited_.count() == 0) {
        for (const sg::Edge& e : spec_.out(q_cur_)) {
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
      for (std::size_t gi = excited_.find_first(); gi != util::BitVec::npos;
           gi = excited_.find_next(gi)) {
        const WireId w = n_.gate(gi).out;
        const bool new_value = !bit(cur_.data(), w);
        const sg::SignalId o = sig_of_wire_[w];
        if (o == stg::kNoSignal) {
          if (!move(q_cur_, gi, cur, w, new_value)) return;
          continue;
        }
        bool matched = false;
        for (const sg::Edge& e : spec_.out(q_cur_)) {
          if (e.sig != o || e.rise != new_value) continue;
          matched = true;
          if (!move(e.to, gi, cur, w, new_value)) return;
        }
        if (!matched) {
          const std::string label = label_of(w, new_value);
          r_.conforms = false;
          r_.issues.push_back("circuit fires " + label +
                              " which the specification does not enable here");
          fail_with_trace(cur, label);
          return;
        }
      }

      // Environment moves: the spec's input transitions.
      for (const sg::Edge& e : spec_.out(q_cur_)) {
        if (!spec_.is_input(e.sig)) continue;
        const WireId w = wire_of_sig_[e.sig];
        MPS_ASSERT(bit(cur_.data(), w) == !e.rise);
        if (!move(e.to, Netlist::npos, cur, w, e.rise)) return;
      }
    }
    r_.complete = true;
  }

 private:
  struct Parent {  // the move that first reached a state (from kNone: none)
    std::uint32_t from;
    WireId wire;
    bool value;
  };

  /// Intern (q, next_); a new state records `parent`.  False when the
  /// state budget is spent.
  bool enqueue(sg::StateId q, const Parent& parent) {
    std::uint64_t h = q;
    for (const std::uint64_t w : next_) h = util::hash_combine(h, w);
    const auto same = [&](std::uint32_t id) {
      return q_[id] == q &&
             std::memcmp(wires_.data() + id * stride_, next_.data(), stride_ * 8) == 0;
    };
    if (index_.find(h, same) != util::IdTable::kNone) return true;
    if (q_.size() >= kSiMaxStates) {
      r_.issues.push_back(util::format("composed state space exceeds the %zu-state budget",
                                       kSiMaxStates));
      return false;  // complete stays false
    }
    index_.insert(h, static_cast<std::uint32_t>(q_.size()));
    q_.push_back(q);
    wires_.insert(wires_.end(), next_.begin(), next_.end());
    parent_.push_back(parent);
    return true;
  }

  const Netlist& n_;
  const sg::StateGraph& spec_;
  SiResult& r_;
  const std::size_t stride_;  // wire words per composed state

  std::vector<WireId> wire_of_sig_;
  std::vector<sg::SignalId> sig_of_wire_;
  std::vector<std::vector<std::size_t>> affected_;  // per wire, see prepare()

  std::vector<sg::StateId> q_;        // per composed state
  std::vector<std::uint64_t> wires_;  // stride_ words per composed state
  std::vector<Parent> parent_;        // per composed state
  util::IdTable index_;
  // The state being expanded, its excited gates and a successor's wires.
  sg::StateId q_cur_ = 0;
  std::vector<std::uint64_t> cur_, next_;
  util::BitVec excited_;
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
