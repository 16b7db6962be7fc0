#include "sg/state_graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "obs/obs.hpp"
#include "petri/analysis.hpp"
#include "util/common.hpp"

namespace mps::sg {

SignalId StateGraph::find_signal(std::string_view name) const {
  // Hash lookup instead of a linear scan: several call sites sit inside
  // per-state loops, where O(#signals) per call added up.
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? stg::kNoSignal : it->second;
}

void StateGraph::index_signal(SignalId s) {
  // try_emplace keeps the first (lowest) id on duplicate names, matching
  // the linear scan this index replaced.
  by_name_.try_emplace(signals_[s].name, s);
}

SignalId StateGraph::add_signal(const SignalInfo& info, bool value) {
  signals_.push_back(info);
  for (auto& code : codes_) code.push_back(value);
  const SignalId s = static_cast<SignalId>(signals_.size() - 1);
  index_signal(s);
  input_mask_.push_back(info.is_input);
  return s;
}

StateId StateGraph::add_state(util::BitVec code) {
  MPS_ASSERT(code.size() == signals_.size());
  codes_.push_back(std::move(code));
  out_.emplace_back();
  return static_cast<StateId>(codes_.size() - 1);
}

util::BitVec StateGraph::excited(StateId s) const {
  util::BitVec bits(signals_.size());
  for (const Edge& e : out_[s]) {
    if (!e.is_silent()) bits.set(e.sig);
  }
  return bits;
}

util::BitVec StateGraph::excited_non_input(StateId s) const {
  util::BitVec bits = excited(s);
  bits.and_not(input_mask_);
  return bits;
}

bool StateGraph::excited_dir(StateId s, SignalId sig, bool rise) const {
  for (const Edge& e : out_[s]) {
    if (!e.is_silent() && e.sig == sig && e.rise == rise) return true;
  }
  return false;
}

std::size_t StateGraph::num_concurrent_pairs() const {
  std::size_t n = 0;
  for (StateId s = 0; s < num_states(); ++s) {
    const std::size_t k = excited(s).count();
    n += k >= 2 ? k * (k - 1) / 2 : 0;
  }
  return n;
}

std::vector<std::vector<StateId>> StateGraph::predecessors() const {
  std::vector<std::vector<StateId>> pred(num_states());
  for (StateId s = 0; s < num_states(); ++s) {
    for (const Edge& e : out_[s]) pred[e.to].push_back(s);
  }
  return pred;
}

void StateGraph::check_consistency() const {
  MPS_ASSERT(initial_ < num_states() || num_states() == 0);
  for (StateId s = 0; s < num_states(); ++s) {
    MPS_ASSERT(codes_[s].size() == signals_.size());
    for (const Edge& e : out_[s]) {
      MPS_ASSERT(e.to < num_states());
      if (e.is_silent()) {
        // ε edges must not change any signal value.
        MPS_ASSERT(codes_[s] == codes_[e.to]);
        continue;
      }
      MPS_ASSERT(e.sig < signals_.size());
      // Consistent state assignment (§2): a+ goes 0 -> 1, a- goes 1 -> 0,
      // and all other signals keep their value.
      MPS_ASSERT(codes_[s].test(e.sig) == !e.rise);
      MPS_ASSERT(codes_[e.to].test(e.sig) == e.rise);
      MPS_ASSERT(codes_[s].count_diff(codes_[e.to]) == 1);
    }
  }
}

/// Infer the value of every signal in every marking (consistent state
/// assignment), in ONE pass over the reachability edges for all signals at
/// once (DESIGN.md "Hot paths").  The constraint system per signal s is:
/// non-s edges preserve s's value, s~ flips it, s+ / s- flip it *and* pin
/// the absolute endpoint values (from=0/to=1 resp. from=1/to=0).  Because
/// every relation is "preserve or flip", each state's value is the value at
/// state 0 XOR the flip parity along any path — so one sweep computes
/// per-state codes *relative to state 0* for all signals simultaneously
/// (reachability emits edges in BFS discovery order: an edge's source state
/// is always coded before the edge is scanned).  Rise/fall edges pin the
/// state-0 value base[s]; signals without any rise/fall seed base[s] from
/// the declared initial value.  Non-tree edges are verified against the
/// relative codes; a parity mismatch or conflicting pin on signal s is
/// exactly the contradiction the old per-signal BFS detected, and the
/// lowest such signal id is reported, matching the per-signal scan order.
std::vector<util::BitVec> infer_codes(const stg::Stg& stg,
                                      const petri::ReachabilityResult& reach) {
  const std::size_t num_states = reach.num_markings;
  const std::size_t num_signals = stg.num_signals();
  obs::Span span("sg.infer_codes");
  span.arg("states", static_cast<std::int64_t>(num_states));
  span.arg("signals", static_cast<std::int64_t>(num_signals));

  std::vector<util::BitVec> codes(num_states, util::BitVec(num_signals));
  std::vector<char> coded(num_states, 0);
  coded[0] = 1;

  util::BitVec inconsistent(num_signals);
  util::BitVec base_known(num_signals);
  util::BitVec base(num_signals);
  util::BitVec scratch(num_signals);

  for (const auto& e : reach.edges) {
    const stg::Label& l = stg.label(e.trans);
    if (!coded[e.to]) {
      codes[e.to] = codes[e.from];  // same width: reuses the preallocated words
      if (!l.is_silent()) codes[e.to].flip(l.sig);
      coded[e.to] = 1;
    } else {
      // Non-tree edge: relative codes must agree up to the labelled flip.
      // Any other differing bit means an odd-parity cycle for that signal.
      scratch = codes[e.from];
      scratch ^= codes[e.to];
      if (!l.is_silent()) scratch.flip(l.sig);
      inconsistent |= scratch;
    }
    if (!l.is_silent() && (l.pol == stg::Polarity::Rise || l.pol == stg::Polarity::Fall)) {
      // abs(from) = rel(from) ^ base must be 0 for s+ and 1 for s-.
      const bool want = codes[e.from].test(l.sig) ^ (l.pol == stg::Polarity::Rise ? false : true);
      if (base_known.test(l.sig)) {
        if (base.test(l.sig) != want) inconsistent.set(l.sig);
      } else {
        base_known.set(l.sig);
        base.set(l.sig, want);
      }
    }
  }
  bool all_coded = true;
  for (std::uint32_t st = 0; st < num_states; ++st) all_coded &= coded[st] != 0;

  stg::SignalId first_real = stg::kNoSignal;
  for (stg::SignalId s = 0; s < num_signals; ++s) {
    if (stg.signal_kind(s) == stg::SignalKind::Dummy) continue;
    if (first_real == stg::kNoSignal) first_real = s;
    if (inconsistent.test(s)) {
      throw util::SemanticsError("STG '" + stg.name() +
                                 "' has no consistent state assignment for signal " +
                                 stg.signal_name(s));
    }
    if (!base_known.test(s)) {
      // Signal never rises/falls explicitly: seed from the declared initial
      // value, defaulting to 0.
      const auto declared = stg.initial_value(s);
      base.set(s, declared.value_or(false));
    }
  }
  if (!all_coded && first_real != stg::kNoSignal) {
    // Unreached by the edge sweep: disconnected component (cannot happen for
    // reachability graphs, which are rooted) — but stay defensive.
    throw util::SemanticsError("signal value underdetermined for " +
                               stg.signal_name(first_real));
  }

  // Dummy signals have only silent labels (enforced by the Stg builder), so
  // their columns never flip and their base bits stay 0: dummy columns come
  // out all-zero, exactly as the per-signal scan (which skipped them) left
  // them.
  for (std::uint32_t st = 0; st < num_states; ++st) codes[st] ^= base;
  return codes;
}

StateGraph StateGraph::from_stg(const stg::Stg& stg, const BuildOptions& opts) {
  petri::ReachabilityOptions ropts;
  ropts.max_markings = opts.max_states;
  const auto reach = petri::reachability(stg.net(), stg.initial_marking(), ropts);
  if (!reach.complete) {
    throw util::LimitError("state graph of '" + stg.name() + "' exceeds " +
                           std::to_string(opts.max_states) + " states");
  }
  if (!reach.safe) {
    throw util::SemanticsError("STG '" + stg.name() + "' is not safe (a place holds >1 token)");
  }

  // Signal table: all non-dummy signals, preserving STG ids.  Dummy signals
  // occupy no code column; their transitions become silent edges.  To keep
  // SignalId stable between the STG and the state graph we require dummies
  // to come after real signals or map densely; simplest is to map densely
  // and remember the mapping.
  std::vector<SignalInfo> infos;
  std::vector<SignalId> dense(stg.num_signals(), stg::kNoSignal);
  for (stg::SignalId s = 0; s < stg.num_signals(); ++s) {
    if (stg.signal_kind(s) == stg::SignalKind::Dummy) continue;
    dense[s] = static_cast<SignalId>(infos.size());
    infos.push_back(SignalInfo{stg.signal_name(s), stg.is_input(s)});
  }

  auto codes = infer_codes(stg, reach);

  const bool has_dummies = infos.size() != stg.num_signals();
  StateGraph g(std::move(infos));
  for (std::uint32_t st = 0; st < reach.num_markings; ++st) {
    if (!has_dummies) {
      // dense[] is the identity: the inferred code is already the state code.
      g.add_state(std::move(codes[st]));
      continue;
    }
    // Re-pack the code to drop dummy columns.
    util::BitVec packed(g.num_signals());
    for (stg::SignalId s = 0; s < stg.num_signals(); ++s) {
      if (dense[s] != stg::kNoSignal) packed.set(dense[s], codes[st].test(s));
    }
    g.add_state(std::move(packed));
  }
  g.set_initial(0);

  for (const auto& e : reach.edges) {
    const stg::Label& l = stg.label(e.trans);
    Edge edge;
    edge.to = e.to;
    if (l.is_silent()) {
      edge.sig = stg::kNoSignal;
    } else {
      edge.sig = dense[l.sig];
      edge.rise = l.pol == stg::Polarity::Toggle ? g.code(e.to).test(dense[l.sig])
                                                 : l.pol == stg::Polarity::Rise;
    }
    g.add_edge(e.from, edge);
  }

  g.check_consistency();
  return g;
}

CodeClasses code_classes(const StateGraph& g) {
  const std::size_t n = g.num_states();
  const std::size_t words = n == 0 ? 0 : g.code(0).num_words();
  // The codes side by side: the sort reads one array, not a buffer per state.
  std::vector<std::uint64_t> keys(n * words);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = g.code(i / words).word(i % words);
  const auto key = [&](StateId s) { return keys.begin() + s * words; };
  // BitVec::to_string() order, word by word: the code with a 0 at the lowest
  // differing bit comes first.
  const auto code_less = [&](StateId a, StateId b) {
    const auto [x, y] = std::mismatch(key(a), key(a) + words, key(b));
    return x != key(a) + words && (*y >> std::countr_zero(*x ^ *y) & 1u) != 0;
  };
  CodeClasses cc;
  cc.order.resize(n);
  std::iota(cc.order.begin(), cc.order.end(), StateId{0});
  std::stable_sort(cc.order.begin(), cc.order.end(), code_less);  // ties keep ascending ids
  cc.class_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || code_less(cc.order[i - 1], cc.order[i])) {
      cc.begin.push_back(static_cast<std::uint32_t>(i));
    }
    cc.class_of[cc.order[i]] = static_cast<std::uint32_t>(cc.begin.size() - 1);
  }
  cc.begin.push_back(static_cast<std::uint32_t>(n));
  return cc;
}

}  // namespace mps::sg
