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

StateId StateGraph::add_state(std::span<const std::uint64_t> code) {
  MPS_ASSERT(first_.empty() && code.size() == stride_);
  codes_.insert(codes_.end(), code.begin(), code.end());
  return static_cast<StateId>(num_states_++);
}

void StateGraph::seal() {
  // A stable counting sort by source.  The library's builders stage their
  // edges in source order already, and then the staged array is the CSR.
  MPS_ASSERT(first_.empty() && edges_.size() < kNoState);
  first_.assign(num_states_ + 1, 0);
  for (const StateId s : staged_from_) ++first_.at(s + 1);
  std::partial_sum(first_.begin(), first_.end(), first_.begin());
  if (!std::ranges::is_sorted(staged_from_)) {
    std::vector<Edge> rows(edges_.size());
    std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
    for (std::size_t i = 0; i < edges_.size(); ++i) rows[next[staged_from_[i]]++] = edges_[i];
    edges_ = std::move(rows);
  }
  staged_from_ = {};
}

std::size_t StateGraph::code_distance(StateId a, StateId b) const {
  const auto x = code_words(a), y = code_words(b);
  std::size_t n = 0;
  for (std::size_t wi = 0; wi < stride_; ++wi) n += std::popcount(x[wi] ^ y[wi]);
  return n;
}

util::BitVec StateGraph::excited(StateId s) const {
  util::BitVec bits(signals_.size());
  for (const Edge& e : out(s)) {
    if (!e.is_silent()) bits.set(e.sig);
  }
  return bits;
}

bool StateGraph::excited_dir(StateId s, SignalId sig, bool rise) const {
  for (const Edge& e : out(s)) {
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

void StateGraph::check_consistency() const {
  MPS_ASSERT(initial_ < num_states() || num_states() == 0);
  for (StateId s = 0; s < num_states(); ++s) {
    for (const Edge& e : out(s)) {
      MPS_ASSERT(e.to < num_states());
      if (e.is_silent()) {
        // ε edges must not change any signal value.
        MPS_ASSERT(code_distance(s, e.to) == 0);
        continue;
      }
      MPS_ASSERT(e.sig < signals_.size());
      // Consistent state assignment (§2): a+ goes 0 -> 1, a- goes 1 -> 0,
      // and all other signals keep their value.
      MPS_ASSERT(value(s, e.sig) == !e.rise);
      MPS_ASSERT(value(e.to, e.sig) == e.rise);
      MPS_ASSERT(code_distance(s, e.to) == 1);
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
std::vector<std::uint64_t> infer_codes(const stg::Stg& stg,
                                       const petri::ReachabilityResult& reach) {
  const std::size_t num_states = reach.num_markings;
  obs::Span span("sg.infer_codes");
  span.arg("states", static_cast<std::int64_t>(num_states));
  span.arg("signals", static_cast<std::int64_t>(stg.num_signals()));

  // Code columns: the non-dummy signals in id order.  Dummies have only
  // silent labels (the Stg builder enforces it), so they need none.
  std::vector<std::size_t> column(stg.num_signals());
  std::size_t width = 0;
  for (stg::SignalId s = 0; s < stg.num_signals(); ++s) {
    if (stg.signal_kind(s) != stg::SignalKind::Dummy) column[s] = width++;
  }
  const std::size_t words = (width + 63) / 64;
  std::vector<std::uint64_t> codes(num_states * words);
  const auto bit = [](std::size_t c) { return std::uint64_t{1} << (c & 63); };
  std::uint32_t coded = 1;  // markings 0 .. coded - 1, in discovery order

  std::vector<std::uint64_t> inconsistent(words);
  util::BitVec base_known(width);
  util::BitVec base(width);

  for (const auto& e : reach.edges) {
    const stg::Label& l = stg.label(e.trans);
    const std::uint64_t* from = codes.data() + e.from * words;
    std::uint64_t* to = codes.data() + e.to * words;
    // The labelled flip, as a column, its word and its mask (none for ε).
    const std::size_t c = l.is_silent() ? 0 : column[l.sig];
    const std::uint64_t flip = l.is_silent() ? 0 : bit(c);
    if (e.to == coded) {
      std::copy(from, from + words, to);
      if (flip != 0) to[c >> 6] ^= flip;
      ++coded;
    } else {
      // Non-tree edge: relative codes must agree up to the labelled flip.
      // Any other differing bit means an odd-parity cycle for that signal.
      for (std::size_t wi = 0; wi < words; ++wi) {
        inconsistent[wi] |= from[wi] ^ to[wi] ^ (wi == c >> 6 ? flip : 0);
      }
    }
    if (!l.is_silent() && (l.pol == stg::Polarity::Rise || l.pol == stg::Polarity::Fall)) {
      // abs(from) = rel(from) ^ base must be 0 for s+ and 1 for s-.
      const bool want = ((from[c >> 6] & flip) != 0) != (l.pol == stg::Polarity::Fall);
      if (base_known.test(c)) {
        if (base.test(c) != want) inconsistent[c >> 6] |= flip;
      } else {
        base_known.set(c);
        base.set(c, want);
      }
    }
  }

  stg::SignalId first_real = stg::kNoSignal;
  for (stg::SignalId s = 0; s < stg.num_signals(); ++s) {
    if (stg.signal_kind(s) == stg::SignalKind::Dummy) continue;
    if (first_real == stg::kNoSignal) first_real = s;
    if ((inconsistent[column[s] >> 6] & bit(column[s])) != 0) {
      throw util::SemanticsError("STG '" + stg.name() +
                                 "' has no consistent state assignment for signal " +
                                 stg.signal_name(s));
    }
    if (!base_known.test(column[s])) {
      // Signal never rises/falls explicitly: seed from the declared initial
      // value, defaulting to 0.
      base.set(column[s], stg.initial_value(s).value_or(false));
    }
  }
  if (coded != num_states && first_real != stg::kNoSignal) {
    // Unreached by the edge sweep: disconnected component (cannot happen for
    // reachability graphs, which are rooted) — but stay defensive.
    throw util::SemanticsError("signal value underdetermined for " +
                               stg.signal_name(first_real));
  }
  for (std::size_t i = 0; i < codes.size(); ++i) codes[i] ^= base.words()[i % words];
  return codes;
}

StateGraph StateGraph::from_stg(const stg::Stg& stg, const BuildOptions& opts) {
  obs::Span span("sg.from_stg");
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

  StateGraph g(std::move(infos));
  g.num_states_ = reach.num_markings;
  g.codes_ = infer_codes(stg, reach);

  g.edges_.reserve(reach.edges.size());
  g.staged_from_.reserve(reach.edges.size());
  for (const auto& e : reach.edges) {
    const stg::Label& l = stg.label(e.trans);
    const SignalId sig = l.is_silent() ? stg::kNoSignal : dense[l.sig];
    const bool rise = !l.is_silent() && (l.pol == stg::Polarity::Toggle
                                             ? g.value(e.to, sig)
                                             : l.pol == stg::Polarity::Rise);
    g.add_edge(e.from, Edge{sig, rise, e.to});
  }
  g.seal();

  g.check_consistency();
  span.arg("states", static_cast<std::int64_t>(g.num_states()));
  span.arg("edges", static_cast<std::int64_t>(g.num_edges()));
  return g;
}

CodeClasses code_classes(const StateGraph& g) {
  const std::size_t n = g.num_states();
  // BitVec::to_string() order, word by word: the code with a 0 at the lowest
  // differing bit comes first.
  const auto code_less = [&](StateId a, StateId b) {
    const auto x = g.code_words(a);
    const auto [i, j] = std::ranges::mismatch(x, g.code_words(b));
    return i != x.end() && (*j >> std::countr_zero(*i ^ *j) & 1u) != 0;
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
